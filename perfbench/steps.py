"""Step counts by integrator path, and timing probes of the public ``dynamics.step``.

The counting pass reruns a workload's simulations at ``record_stride=1`` and
classifies every step from the recorded samples, in this order:

* fixed point: the state after the step is bit-identical to the state before;
* sliding: some component slid (the recorded sliding mask);
* band-capped: the step was shorter than ``min(dt, time left in the interval)``;
* free: everything else.

A step is a fallback when some component lies within ``band`` of a jump and
the Laplacian block of those components is rank-deficient, which is when the
selection solve gives up and takes the jump midpoints. That is recomputed
here from the state and compared with the program's own ``fallback_steps``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

CLASSES = ("fixed_point", "sliding", "band_capped", "free")
PROBES = ("free", "band_capped", "sliding", "fallback")
PROBE_CALLS = 200


@dataclass
class Sim:
    """One simulation of a workload, enough to run it again with any record stride."""

    g: object
    x0: np.ndarray
    opts: object
    steps: int
    fallback_steps: int
    graph: object = None  # fixed topology, or
    proc: object = None  # a switching process with its schedule seed
    seed: int = 0
    delta: float | None = None


@dataclass
class Probe:
    t: float
    x: np.ndarray
    x_next: np.ndarray
    lap: np.ndarray
    dt_limit: float
    sim: Sim


@dataclass
class Counts:
    steps: int = 0
    fallback: int = 0
    by_class: dict = field(default_factory=lambda: dict.fromkeys(CLASSES, 0))
    probes: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)


def _rank_deficient(block: np.ndarray) -> bool:
    """The rank test of numpy's least-squares solver with its default cutoff."""
    s = np.linalg.svd(block, compute_uv=False)
    return int((s > np.finfo(float).eps * max(block.shape) * s.max()).sum()) < len(block)


def count(lab, sims: list[Sim]) -> Counts:
    out = Counts()
    for sim in sims:
        opts = sim.opts
        if sim.graph is not None:
            res = lab.dynamics.simulate_fixed(sim.graph, sim.g, sim.x0, opts, record_stride=1)
            w = sim.graph.weights
            laps = [np.diag(w.sum(axis=1)) - w]
            ends = [opts.t_max]
        else:
            res = lab.switching.simulate_switching(sim.proc, sim.g, sim.x0, opts, seed=sim.seed,
                                                   record_stride=1, delta=sim.delta)
            schedule = lab.switching.sample_schedule(sim.proc, opts.t_max, sim.seed)
            laps = [iv.lap for iv in schedule]
            ends = [iv.t_end for iv in schedule]
        traj, summary = res.trajectory, res.summary
        steps = len(traj.t) - 1
        if (steps, summary.steps, summary.fallback_steps) != (sim.steps, sim.steps, sim.fallback_steps):
            out.mismatches.append(
                f"stride-1 rerun took {steps} recorded / {summary.steps} steps with "
                f"{summary.fallback_steps} fallbacks, the run took {sim.steps} with {sim.fallback_steps}")
        t, x = traj.t, traj.x
        # interval of each step: the first interval whose end lies beyond the step's start
        tiny = 1e-12 * max(1.0, opts.t_max)
        which = np.searchsorted(np.asarray(ends) - tiny, t[:-1], side="right")
        dt_limit = np.asarray(ends)[which] - t[:-1]
        nominal = np.minimum(opts.dt, dt_limit)
        fixed = (x[1:] == x[:-1]).all(axis=1)
        sliding = traj.sliding[:-1].any(axis=1) & ~fixed
        capped = (t[1:] - t[:-1] < nominal * (1 - 1e-9)) & ~fixed & ~sliding
        free = ~(fixed | sliding | capped)
        bxs = np.asarray(sim.g.breakpoint_xs)
        banded = (np.abs(x[:-1, :, None] - bxs).min(axis=2) <= opts.band) if bxs.size else \
            np.zeros_like(x[:-1], dtype=bool)
        memo: dict = {}
        fallback = np.zeros(steps, dtype=bool)
        for k in np.flatnonzero(banded.any(axis=1)):
            b = np.flatnonzero(banded[k])
            key = (int(which[k]), b.tobytes())
            if key not in memo:
                memo[key] = _rank_deficient(laps[which[k]][np.ix_(b, b)])
            fallback[k] = memo[key]
        if int(fallback.sum()) != summary.fallback_steps:
            out.mismatches.append(f"{int(fallback.sum())} fallback steps recounted, "
                                  f"the program reports {summary.fallback_steps}")
        out.steps += steps
        out.fallback += int(fallback.sum())
        for name, mask in zip(CLASSES, (fixed, sliding, capped, free)):
            out.by_class[name] += int(mask.sum())
        for name, mask in zip(PROBES, (free, capped, sliding & ~fallback, fallback)):
            hits = np.flatnonzero(mask)
            if name not in out.probes and hits.size:
                k = int(hits[0])
                out.probes[name] = Probe(float(t[k]), x[k].copy(), x[k + 1].copy(),
                                         laps[which[k]], float(dt_limit[k]), sim)
    return out


def _took_path(name: str, res, opts, dt_limit: float) -> bool:
    nominal = min(opts.dt, dt_limit)
    if name == "free":
        return not res.sliding_set and not res.used_fallback and res.dt == nominal
    if name == "band_capped":
        return not res.sliding_set and not res.used_fallback and res.dt < nominal
    if name == "sliding":
        return bool(res.sliding_set) and not res.used_fallback
    return res.used_fallback


def probe(lab, name: str, p: Probe, mismatches: list) -> float:
    """Median microseconds per call of ``dynamics.step`` on a state that takes path ``name``."""
    state = lab.dynamics.State(p.t, p.x)
    times = []
    for _ in range(PROBE_CALLS):
        t0 = perf_counter()
        res = lab.dynamics.step(state, p.lap, p.sim.g, p.sim.opts, dt_limit=p.dt_limit)
        times.append(perf_counter() - t0)
    if not _took_path(name, res, p.sim.opts, p.dt_limit):
        mismatches.append(f"step probe {name!r} took another path: dt={res.dt}, "
                          f"sliding={res.sliding_set}, fallback={res.used_fallback}")
    if not np.array_equal(res.state.x, p.x_next):
        mismatches.append(f"step probe {name!r} does not reproduce the integrator's step")
    return 1e6 * statistics.median(times)

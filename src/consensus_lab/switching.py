"""Randomly switching topologies: schedules, the blinking model, decay reports.

A switching process pairs an i.i.d. duration sampler with an i.i.d. graph
sampler; the two streams are seeded independently so durations and graphs
are independent by construction. Each simulated interval produces a report
comparing the realized disagreement decay with the per-interval exponential
bound ``V(t_{k+1}) <= exp(-eps * eta * dt_k) * V(t_k)``, where ``eps`` is the
certified separation ratio of the coupling function on the initial hull and
``eta`` the scrambling coefficient of the interval's graph. A run reads each
graph once, when it takes the interval (its eta, its delta-scrambling verdict
and the caller's ``on_interval``), and so holds one graph at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Protocol

import numpy as np

from .dynamics import RunSummary, SimOptions, Trajectory, integrate
from .graph import WeightedDigraph, _covers_every_pair, is_delta_scrambling, laplacian, scrambling_coefficient
from .protocol import ClassAFunction, epsilon_separation, validated


class AssumptionViolationError(RuntimeError):
    """The coupling function has no positive separation ratio on the state hull."""


class DurationSampler(Protocol):
    def sample(self, rng: np.random.Generator) -> float: ...


@dataclass(frozen=True)
class ConstantDuration:
    value: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.value


@dataclass(frozen=True)
class UniformDuration:
    low: float
    high: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


GraphSampler = Callable[[np.random.Generator], WeightedDigraph]


@dataclass(frozen=True)
class FixedGraphSampler:
    graph: WeightedDigraph

    @property
    def n(self) -> int:
        return self.graph.n

    def __call__(self, rng: np.random.Generator) -> WeightedDigraph:
        return self.graph

    def stack(self, rng: np.random.Generator, b: int) -> np.ndarray:
        return np.broadcast_to(self.graph.weights, (b, self.n, self.n))


@dataclass(frozen=True)
class BlinkingModel:
    """Ring backbone with 2K fixed neighbors plus independent on/off shortcuts.

    Every non-backbone ordered pair (i, j) is switched on independently with
    probability ``p`` for the duration of one interval; every live link has
    weight ``w``. ``K = 0`` means no backbone at all.
    """

    n: int
    K: int = 0
    p: float = 0.1
    w: float = 0.1

    def __post_init__(self) -> None:
        integer, real = (int, np.integer), (int, float, np.integer, np.floating)
        for name, kinds, what in (("n", integer, "an integer"), ("K", integer, "an integer"),
                                  ("p", real, "a real number"), ("w", real, "a real number")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.n < 2:
            raise ValueError("blinking model needs at least two nodes")
        if not 0 <= self.K <= (self.n - 1) // 2:
            raise ValueError("K must satisfy 0 <= 2K <= n-1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not (self.w > 0 and math.isfinite(self.w)):
            raise ValueError(f"w must be finite and positive, got {self.w!r}")

    def backbone(self) -> np.ndarray:
        """Boolean matrix with entry [i, j] true when i -> j is a ring edge."""
        on = np.zeros((self.n, self.n), dtype=bool)
        for k in range(1, self.K + 1):
            idx = np.arange(self.n)
            on[idx, (idx + k) % self.n] = True
            on[idx, (idx - k) % self.n] = True
        return on


def sample_blinking(model: BlinkingModel, rng: np.random.Generator) -> WeightedDigraph:
    """One interval's graph: the stack of one."""
    return WeightedDigraph(model.n, BlinkingSampler(model).stack(rng, 1)[0])


@dataclass(frozen=True)
class BlinkingSampler:
    model: BlinkingModel

    @property
    def n(self) -> int:
        return self.model.n

    def __call__(self, rng: np.random.Generator) -> WeightedDigraph:
        return sample_blinking(self.model, rng)

    def stack(self, rng: np.random.Generator, b: int) -> np.ndarray:
        """Backbone always on, shortcuts on with probability p; ``rng.random((b, n, n))``
        uses the stream as ``b`` draws of one ``(n, n)`` matrix do."""
        m = self.model
        on = rng.random((b, m.n, m.n)) < m.p
        on |= m.backbone()
        on &= ~np.eye(m.n, dtype=bool)
        # on[., i, j] is the edge i -> j; the weight convention stores it at W[., j, i].
        return m.w * on.swapaxes(1, 2).astype(float)


@dataclass(frozen=True)
class SwitchingProcess:
    """I.i.d. interval durations plus an independent i.i.d. graph sequence."""

    durations: DurationSampler
    graphs: GraphSampler


def process_for_graph(graph: WeightedDigraph, durations: DurationSampler) -> SwitchingProcess:
    return SwitchingProcess(durations, FixedGraphSampler(graph))


def process_for_blinking(model: BlinkingModel, durations: DurationSampler) -> SwitchingProcess:
    return SwitchingProcess(durations, BlinkingSampler(model))


@dataclass(frozen=True)
class ScheduleInterval:
    k: int
    t_start: float
    t_end: float
    graph: WeightedDigraph

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def lap(self) -> np.ndarray:
        """The Laplacian of ``graph``, computed on each access: an interval holds no n x n
        array beside its graph."""
        return laplacian(self.graph)


def _schedule(proc: SwitchingProcess, t_max: float, rng_seed: int) -> Iterator[ScheduleInterval]:
    """The intervals of ``sample_schedule``, each sampled only when it is taken."""
    rng_dur, rng_graph = (np.random.default_rng(s) for s in np.random.SeedSequence(rng_seed).spawn(2))
    t = 0.0
    k = 0
    while t < t_max:
        dt = float(proc.durations.sample(rng_dur))
        if not dt > 0:  # NaN included: a run would never reach an interval end of NaN
            raise ValueError(f"duration sampler produced a non-positive duration {dt}")
        yield ScheduleInterval(k, t, min(t + dt, t_max), proc.graphs(rng_graph))
        t += dt
        k += 1


def sample_schedule(proc: SwitchingProcess, t_max: float, rng_seed: int) -> list[ScheduleInterval]:
    """Switch times and per-interval graphs on [0, t_max], fully seed-determined.

    Durations and graphs come from two independent child streams of the seed.
    """
    return list(_schedule(proc, t_max, rng_seed))


@dataclass(frozen=True)
class IntervalReport:
    k: int
    dt: float
    eta: float
    v_start: float
    v_end: float
    bound_rhs: float


def write_interval_reports_csv(reports: list[IntervalReport], path: str | Path) -> None:
    lines = ["k,dt,eta,v_start,v_end,bound_rhs"]
    for r in reports:
        lines.append(
            f"{r.k},{r.dt!r},{r.eta!r},{r.v_start!r},{r.v_end!r},{r.bound_rhs!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class SwitchingSummary(RunSummary):
    epsilon: float
    epsilon_exact: bool
    cumulative_exponent: float
    n_intervals: int
    delta: float | None
    delta_scrambling_intervals: int | None
    schedule_seed: int

    @property
    def delta_scrambling_fraction(self) -> float | None:
        """Share of the reported intervals whose graph is delta-scrambling."""
        if self.delta is None or not self.n_intervals:
            return None
        return self.delta_scrambling_intervals / self.n_intervals


@dataclass
class SwitchingRunResult:
    trajectory: Trajectory
    reports: list[IntervalReport]
    summary: SwitchingSummary


def simulate_switching(proc: SwitchingProcess, g: ClassAFunction, x0: np.ndarray,
                       opts: SimOptions, seed: int, record_stride: int = 1,
                       stop_at_consensus: bool = True, delta: float | None = None,
                       on_interval: Callable[[ScheduleInterval], None] | None = None
                       ) -> SwitchingRunResult:
    """Integrate across a sampled switching schedule, one report per interval.

    ``on_interval`` is called with each interval the run takes, before it is
    integrated. Aborts when the coupling function has no certified positive
    separation ratio on ``[min x0, max x0]`` (trajectories stay inside that
    hull, so the certificate is valid for the whole run).
    """
    g = validated(g)
    x = np.array(x0, dtype=float)
    if not x.size or not np.isfinite(x).all():
        raise ValueError("x0 must be non-empty and finite")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:  # degenerate hull: already at consensus; at a large magnitude +-1 rounds back to it
        lo, hi = (lo - 1.0, hi + 1.0) if lo - 1.0 < hi + 1.0 else \
            (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
    sep = epsilon_separation(g, lo, hi)
    if not sep.satisfied:
        raise AssumptionViolationError(
            f"separation ratio {sep.value} on [{lo}, {hi}] is not positive; "
            "the decay bound has no certified rate"
        )
    eps = sep.value
    if delta is not None and not delta > 0:  # checked here too: a run whose every eta is 0 tests no delta-graph
        raise ValueError("delta must be positive")

    records: list[tuple[int, float, float, bool]] = []  # (k, t_start, eta, delta verdict) per interval

    def segments():
        for interval in _schedule(proc, opts.t_max, seed):
            if on_interval is not None:
                on_interval(interval)
            lap = interval.lap
            # a delta-scrambling graph covers every pair, so eta = 0 decides the verdict
            eta = scrambling_coefficient(-lap)
            records.append((interval.k, interval.t_start, eta,
                            delta is not None and eta > 0 and is_delta_scrambling(interval.graph, delta)))
            yield lap, interval.t_end

    traj, taken, summary = integrate(segments(), g, x, opts, record_stride, stop_at_consensus)
    traj.meta["seed"] = seed
    reports: list[IntervalReport] = []
    cumulative_exponent = 0.0
    delta_count = 0
    for (k, t_start, eta, verdict), (v_start, v_end, t_reached) in zip(records, taken):
        dt_actual = t_reached - t_start
        if dt_actual <= 0:
            continue
        reports.append(IntervalReport(
            k=k,
            dt=dt_actual,
            eta=eta,
            v_start=v_start,
            v_end=v_end,
            bound_rhs=v_start * math.exp(-eps * eta * dt_actual),
        ))
        cumulative_exponent += eps * eta * dt_actual
        delta_count += verdict

    return SwitchingRunResult(
        trajectory=traj,
        reports=reports,
        summary=SwitchingSummary(
            **vars(summary),
            epsilon=eps,
            epsilon_exact=sep.exact,
            cumulative_exponent=cumulative_exponent,
            n_intervals=len(reports),
            delta=delta,
            delta_scrambling_intervals=delta_count if delta is not None else None,
            schedule_seed=seed,
        ),
    )


@dataclass(frozen=True)
class EtaEstimate:
    mean: float
    std_error: float
    n_samples: int

    @property
    def certified_positive(self) -> bool:
        """Three-sigma certificate that the expected scrambling coefficient is positive."""
        return self.mean - 3.0 * self.std_error > 0


# weights per stack of expected-eta samples (128 KiB): 6 matrices at n = 50
_ETA_STACK_ELEMENTS = 1 << 14


def estimate_expected_eta(graph_sampler: FixedGraphSampler | BlinkingSampler, n_samples: int,
                          rng_seed: int) -> EtaEstimate:
    """Monte Carlo estimate of E[eta(-L)] over the sampler's graph distribution.

    The samples come in stacks of at most ``_ETA_STACK_ELEMENTS`` weights:
    ``graph_sampler.stack(rng, b)`` draws ``b`` graphs' weights as a ``(b, n,
    n)`` stack, using ``rng`` as ``b`` one-graph draws do. One coverage test
    per stack finds the samples that scramble; only they pay for
    ``scrambling_coefficient``, of their weights, the off-diagonal of ``-L``.
    The others have eta 0.0.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    rng = np.random.default_rng(rng_seed)
    per_stack = max(1, _ETA_STACK_ELEMENTS // max(1, graph_sampler.n ** 2))
    vals = np.zeros(n_samples)
    for start in range(0, n_samples, per_stack):
        weights = graph_sampler.stack(rng, min(per_stack, n_samples - start))
        for i in np.flatnonzero(_covers_every_pair(weights)):
            vals[start + i] = scrambling_coefficient(weights[i])
    std = float(vals.std(ddof=1))
    return EtaEstimate(float(vals.mean()), std / math.sqrt(n_samples), n_samples)


@dataclass(frozen=True)
class EtaBracket:
    """Analytic bracket ``log_lower <= log E[eta] <= log_upper`` (natural logs).

    Kept in log space because the lower end can lie far below the smallest
    positive float64 (about e**-744): at n=50, p=0.1 it is about -851.
    """

    log_lower: float
    log_upper: float

    @property
    def certified_positive(self) -> bool:
        """E[eta] > 0, proved by a finite lower bound (no sampling involved)."""
        return self.log_lower > -math.inf


def blinking_uncovered_probabilities(model: BlinkingModel) -> np.ndarray:
    """Symmetric matrix of q_ij = P(pair (i, j) is uncovered) for one sampled graph.

    A pair is covered when one vertex hears the other or both hear a common
    third vertex. Backbone links are always on, every other link is on
    independently with probability ``p``, so
    ``q_ij = (1 - P[j->i]) (1 - P[i->j]) prod_k (1 - P[k->i] P[k->j])``.
    The diagonal is meaningless and set to 0.
    """
    on = np.where(model.backbone(), 1.0, model.p)  # on[a, b] = P(edge a -> b)
    np.fill_diagonal(on, 0.0)
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-on) + np.log1p(-on.T)
        for row in on:  # common in-neighbor k; a loop keeps memory O(n^2)
            log_q += np.log1p(-np.outer(row, row))
    q = np.exp(log_q)
    np.fill_diagonal(q, 0.0)
    return q


def blinking_eta_bracket(model: BlinkingModel) -> EtaBracket:
    """Analytic bounds on E[eta] for the blinking model, no Monte Carlo.

    Every live link has weight ``w``, so a scrambling graph has
    ``w <= eta <= n * w`` and a non-scrambling one ``eta = 0``; hence
    ``w P(S) <= E[eta] <= n w P(S)`` with S the event that all pairs are
    covered.

    * Lower: each pair-coverage event is increasing in the independent link
      indicators, so the Harris-FKG inequality gives
      ``P(S) >= prod_{i<j} (1 - q_ij)``.
    * Upper: the disjoint pairs (0, 1), (2, 3), ... depend on disjoint sets
      of in-links, so their coverage events are independent and
      ``P(S) <= prod_m (1 - q_{2m, 2m+1})``.
    """
    q = blinking_uncovered_probabilities(model)
    with np.errstate(divide="ignore"):
        log_cov = np.log1p(-q)
    n = model.n
    log_lower = math.log(model.w) + float(log_cov[np.triu_indices(n, k=1)].sum())
    evens = np.arange(0, n - 1, 2)
    log_upper = math.log(n * model.w) + float(log_cov[evens, evens + 1].sum())
    return EtaBracket(log_lower, log_upper)

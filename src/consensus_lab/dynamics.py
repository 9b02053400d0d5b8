"""Integration of x' = -L g(x) with sliding-mode handling at jump points.

The integrator is explicit Euler with two discontinuity-aware ingredients:

* selections: components within ``band`` of a jump abscissa get their
  coupling value from a linear solve that zeroes their velocity (the sliding
  condition), clamped to the jump interval; strictly interior solutions mean
  the component slides and its state is pinned to the abscissa,
* event capping: the step size is shortened so that no component can cross
  a jump band in a single step without landing inside it.

Both the selection vector and the sliding set are recorded per sample so the
produced trajectories can be checked against the set-valued semantics.

``integrate`` is the one integration loop. It steps through segments of
constant Laplacian: a switching schedule is a sequence of them, a fixed
topology a single one. Once a full-length step returns its input bit for
bit, the rest of the segment replays only the time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .graph import (
    NoSpanningTreeError,
    WeightedDigraph,
    laplacian,
    left_null_vector,
    root_partition,
    wra,
)
from .protocol import ClassAFunction, validated


class IntegrationError(RuntimeError):
    """Raised when the state leaves the representable range (NaN/overflow)."""


@dataclass
class SimOptions:
    dt: float = 1e-3
    band: float = 1e-6
    consensus_tol: float = 1e-6
    t_max: float = 100.0

    def __post_init__(self) -> None:
        for name in ("dt", "band", "consensus_tol", "t_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class State:
    t: float
    x: np.ndarray


class Disagreement(NamedTuple):
    vmax: float
    vmin: float
    spread: float


def disagreement(x: np.ndarray) -> Disagreement:
    """Componentwise max, min, and their difference (the disagreement V)."""
    x = np.asarray(x, dtype=float)
    vmax = float(x.max())
    vmin = float(x.min())
    return Disagreement(vmax, vmin, vmax - vmin)


@dataclass
class Trajectory:
    """Time-ordered samples with per-sample selection and sliding diagnostics."""

    t: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    sliding: np.ndarray
    spread: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def sliding_set(self, k: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.sliding[k]))

    def to_csv(self, path: str | Path, stride: int = 1) -> None:
        """Write ``t,x_0,...,x_{n-1},V`` rows at the given sample stride."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        idx = list(range(0, len(self.t), stride))
        if idx[-1] != len(self.t) - 1:
            idx.append(len(self.t) - 1)
        lines = ["t," + ",".join(f"x_{i}" for i in range(self.n)) + ",V"]
        for k in idx:
            row = [repr(float(self.t[k]))]
            row += [repr(float(v)) for v in self.x[k]]
            row.append(repr(float(self.spread[k])))
            lines.append(",".join(row))
        Path(path).write_text("\n".join(lines) + "\n")


class _Recorder:
    def __init__(self, stride: int):
        self.stride = max(1, int(stride))
        self.t: list[float] = []
        self.x: list[np.ndarray] = []
        self.gamma: list[np.ndarray] = []
        self.sliding: list[np.ndarray] = []
        self._count = 0

    def maybe_add(self, t, x, gamma, sliding) -> None:
        if self._count % self.stride == 0:
            self.add(t, x, gamma, sliding)
        self._count += 1

    def add(self, t, x, gamma, sliding) -> None:
        self.t.append(t)
        self.x.append(x.copy())
        self.gamma.append(gamma.copy())
        self.sliding.append(sliding.copy())

    def build(self, meta: dict) -> Trajectory:
        x = np.array(self.x)
        return Trajectory(
            t=np.array(self.t),
            x=x,
            gamma=np.array(self.gamma),
            sliding=np.array(self.sliding),
            spread=x.max(axis=1) - x.min(axis=1),
            meta=meta,
        )


class _Stepper:
    """Precomputed arrays for repeated stepping with one Laplacian."""

    def __init__(self, lap: np.ndarray, g: ClassAFunction, opts: SimOptions):
        self.lap = np.ascontiguousarray(lap, dtype=float)
        self.g = g
        self.opts = opts
        self.bxs = g.breakpoint_xs
        self.blo = g.breakpoint_left
        self.bhi = g.breakpoint_right
        # Band k is [b_k - band, b_k + band]; searchsorted(edges, x, side="right")
        # is odd exactly when x lies in a band, and counts the bands below it.
        edges = [e for b in self.bxs.tolist()
                 for e in (b - opts.band, math.nextafter(b + opts.band, math.inf))]
        if edges != sorted(edges):
            raise ValueError("jump bands overlap: breakpoints must be more than 2*band apart")
        self.edges = np.array(edges)

    def selection(self, x: np.ndarray):
        """Selection vector, sliding mask, nearest-jump indices, fallback flag."""
        n = len(x)
        sliding = np.zeros(n, dtype=bool)
        if not len(self.bxs):
            return self.g.values(x), sliding, None, False
        j = np.searchsorted(self.bxs, x)
        dist_lo = np.where(j > 0, x - self.bxs[np.maximum(j - 1, 0)], np.inf)
        dist_hi = np.where(j < len(self.bxs), self.bxs[np.minimum(j, len(self.bxs) - 1)] - x, np.inf)
        nearest = np.where(dist_lo <= dist_hi, j - 1, j)
        banded = np.minimum(dist_lo, dist_hi) <= self.opts.band
        gamma = np.empty(n)
        free = ~banded
        if free.any():
            gamma[free] = self.g.values(x[free])
        fallback = False
        if banded.any():
            b = np.flatnonzero(banded)
            f = np.flatnonzero(free)
            bi = nearest[b]
            lo, hi = self.blo[bi], self.bhi[bi]
            lbb = self.lap[np.ix_(b, b)]
            rhs = -(self.lap[np.ix_(b, f)] @ gamma[f]) if f.size else np.zeros(len(b))
            sol, _, rank, _ = np.linalg.lstsq(lbb, rhs, rcond=None)
            if rank < len(b):
                sol = 0.5 * (lo + hi)
                fallback = True
            sol = np.clip(sol, lo, hi)
            gamma[b] = sol
            sliding[b] = (sol > lo) & (sol < hi)
        return gamma, sliding, nearest, fallback

    def advance(self, x: np.ndarray, t: float, dt_cap: float):
        # overflow is handled by the explicit finiteness checks below
        with np.errstate(over="ignore", invalid="ignore"):
            return self._advance(x, t, dt_cap)

    def _advance(self, x: np.ndarray, t: float, dt_cap: float):
        dt = min(self.opts.dt, dt_cap)
        if dt <= 0:
            raise ValueError("step size collapsed to zero")
        k = self.edges.searchsorted(x, side="right")
        in_band = k & 1
        if np.count_nonzero(in_band):
            gamma, sliding, nearest, fallback = self.selection(x)
            v = -(self.lap @ gamma)
            v[sliding] = 0.0
            x_new, dt = self._capped_step(x, v, k, in_band, dt)
            x_new[sliding] = self.bxs[nearest[sliding]]
        else:
            gamma = self.g.values(x)
            v = -(self.lap @ gamma)
            x_new, dt = self._capped_step(x, v, k, in_band, dt)
            sliding = np.zeros(len(x), dtype=bool)
            fallback = False
        if not np.isfinite(x_new).all():
            raise IntegrationError(f"state overflow at t={t}")
        return x_new, t + dt, gamma, sliding, dt, fallback

    def _capped_step(self, x, v, k, in_band, dt):
        """Euler step, shortened so that no component passes a whole band it is not in.

        The first component to reach such a band lands on its abscissa.
        """
        x_new = x + dt * v
        crossed = np.abs(self.edges.searchsorted(x_new, side="right") - k) > 1 + in_band
        if np.count_nonzero(crossed):
            kc = k[crossed]
            b = self.bxs[np.where(v[crossed] > 0, (kc + 1) // 2, kc // 2 - 1)]
            dt = min(dt, float(((b - x[crossed]) / v[crossed]).min()))
            x_new = x + dt * v
        return x_new, dt


@dataclass(frozen=True)
class StepResult:
    state: State
    gamma: np.ndarray
    sliding_set: tuple[int, ...]
    dt: float
    used_fallback: bool


def step(state: State, lap: np.ndarray, g: ClassAFunction, opts: SimOptions,
         dt_limit: float | None = None) -> StepResult:
    """One integrator step from ``state``; see the module docstring for semantics."""
    stepper = _Stepper(lap, validated(g), opts)
    x = np.asarray(state.x, dtype=float)
    cap = dt_limit if dt_limit is not None else opts.dt
    x_new, t_new, gamma, sliding, dt, fb = stepper.advance(x.copy(), state.t, cap)
    return StepResult(
        state=State(t_new, x_new),
        gamma=gamma,
        sliding_set=tuple(int(i) for i in np.flatnonzero(sliding)),
        dt=dt,
        used_fallback=fb,
    )


@dataclass
class RunSummary:
    """Outcome fields shared by fixed and switching runs."""

    consensus_reached: bool
    time_to_tol: float | None
    final_disagreement: float
    steps: int
    fallback_steps: int
    fixed_point_steps: int  # of ``steps``, replayed at an exact fixed point without stepping
    options: SimOptions


def integrate(segments: Iterable[tuple[np.ndarray, float]], g: ClassAFunction, x0: np.ndarray,
              opts: SimOptions, record_stride: int = 1, stop_at_consensus: bool = True
              ) -> tuple[Trajectory, list[tuple[float, float, float]], RunSummary]:
    """Integrate from t = 0 through consecutive ``(laplacian, t_end)`` segments.

    Each Laplacian holds from the previous segment's end to its own ``t_end``;
    a fixed topology is the single segment ``(L, t_max)``. Returns the
    trajectory, ``(v_start, v_end, t reached)`` for every segment taken, and
    the summary. Segments are taken one at a time and none after the run
    stops at consensus. ``g`` must already be validated.
    """
    x = np.asarray(x0, dtype=float)
    rec = _Recorder(record_stride)
    taken: list[tuple[float, float, float]] = []
    t = 0.0
    steps = fallback_steps = fixed_point_steps = 0
    time_to_tol: float | None = None
    tiny = 1e-12 * max(1.0, opts.t_max)
    for lap, t_end in segments:
        stepper = _Stepper(lap, g, opts)
        v_start = float(x.max() - x.min())
        while True:
            if t >= t_end - tiny:
                t = t_end
            if time_to_tol is None and x.max() - x.min() < opts.consensus_tol:
                time_to_tol = t
            if t == t_end or (stop_at_consensus and time_to_tol is not None):
                break
            x_new, t_new, gamma, sliding, dt, fb = stepper.advance(x, t, t_end - t)
            rec.maybe_add(t, x, gamma, sliding)
            steps += 1
            fallback_steps += fb
            if dt == min(opts.dt, t_end - t) and x_new.tobytes() == x.tobytes():
                # A step is a function of x and of a cap that only shrinks, and a
                # shorter step from x rounds back to x too: every later step of
                # this segment returns x with the same selection. Replay the grid.
                t = t_new
                while t < t_end - tiny:
                    rec.maybe_add(t, x, gamma, sliding)
                    t += min(opts.dt, t_end - t)
                    steps += 1
                    fixed_point_steps += 1
                    fallback_steps += fb
                continue
            x, t = x_new, t_new
        taken.append((v_start, float(x.max() - x.min()), t))
        if stop_at_consensus and time_to_tol is not None:
            break
    gamma, sliding, _, _ = stepper.selection(x)
    rec.add(t, x, gamma, sliding)

    meta = {"dt": opts.dt, "band": opts.band, "t_max": opts.t_max, "record_stride": record_stride}
    summary = RunSummary(
        consensus_reached=time_to_tol is not None,
        time_to_tol=time_to_tol,
        final_disagreement=float(x.max() - x.min()),
        steps=steps,
        fallback_steps=fallback_steps,
        fixed_point_steps=fixed_point_steps,
        options=opts,
    )
    return rec.build(meta), taken, summary


@dataclass
class FixedSummary(RunSummary):
    consensus_value: float | None
    wra_predicted: float | None


@dataclass
class FixedRunResult:
    trajectory: Trajectory
    summary: FixedSummary


def simulate_fixed(graph: WeightedDigraph, g: ClassAFunction, x0: np.ndarray,
                   opts: SimOptions, record_stride: int = 1,
                   stop_at_consensus: bool = True) -> FixedRunResult:
    """Integrate the protocol on a fixed topology until consensus or t_max.

    The summary reports the reached consensus value (mean of the final state)
    next to the weighted-root-average prediction from the initial state.
    """
    g = validated(g)
    x = np.array(x0, dtype=float)
    if x.shape != (graph.n,):
        raise ValueError(f"x0 must have length {graph.n}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    try:
        wra_predicted = wra(x, graph)
    except NoSpanningTreeError:
        wra_predicted = None

    traj, _, s = integrate([(laplacian(graph), opts.t_max)], g, x, opts, record_stride,
                           stop_at_consensus)
    return FixedRunResult(
        trajectory=traj,
        summary=FixedSummary(
            **vars(s),
            consensus_value=float(traj.x[-1].mean()) if s.consensus_reached else None,
            wra_predicted=wra_predicted,
        ),
    )


def lyapunov_VL(x: np.ndarray, lap: np.ndarray, g: ClassAFunction, xbar: float) -> float:
    """Weighted potential sum_i xi_i * integral_{xbar}^{x_i} (g(s) - gbar) ds.

    ``xi`` is the positive left null vector of the (irreducible) Laplacian and
    ``gbar`` the midpoint of the set-valued evaluation at ``xbar``. Zero
    exactly on the consensus state xbar*1, positive elsewhere.
    """
    xi = left_null_vector(np.asarray(lap, dtype=float))
    gbar = g.eval_interval(xbar).mid
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, xk in zip(xi, x):
        total += weight * (g.definite_integral(xbar, float(xk)) - gbar * (float(xk) - xbar))
    return float(total)


def finite_time_bound(graph: WeightedDigraph, g: ClassAFunction, x0: np.ndarray,
                      atol: float = 1e-9) -> float | None:
    """Upper bound on the time to consensus when the predicted value sits on a jump.

    Returns ``4 V_L(x0) / (|lambda_2| * jump^2)`` where lambda_2 is the second
    largest eigenvalue of -(Xi L + L^T Xi), or None when the weighted root
    average of x0 is a continuity point of g (bound not applicable).
    """
    part = root_partition(graph)
    if part is None:
        raise NoSpanningTreeError("graph has no spanning tree")
    if part.s2:
        raise ValueError("finite-time bound needs a strongly connected graph")
    xbar = wra(np.asarray(x0, dtype=float), graph)
    hits = [b for b in g.breakpoints if abs(b.x - xbar) <= atol]
    if not hits:
        return None
    bp = hits[0]
    if graph.n == 1:
        return 0.0
    lap = laplacian(graph)
    xi = left_null_vector(lap)
    q = -(np.diag(xi) @ lap + lap.T @ np.diag(xi))
    lam2 = float(np.linalg.eigvalsh(q)[-2])
    vl = lyapunov_VL(x0, lap, g, bp.x)
    return 4.0 * vl / (abs(lam2) * bp.jump**2)

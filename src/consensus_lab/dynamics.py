"""Integration of x' = -L g(x) with sliding-mode handling at jump points.

The integrator is explicit Euler with two discontinuity-aware ingredients,
both decided once per step by one band test: a component lies in band k,
``[b_k - band, b_k + band]`` around jump abscissa ``b_k``, exactly when its
band-edge index is 2k + 1.

* selections: banded components get their coupling value from a linear solve
  that zeroes their velocity (the sliding condition), clamped to their jump's
  interval ``[g(b_k-), g(b_k+)]``; strictly interior solutions mean the
  component slides and its state is pinned to ``b_k``,
* event capping: the step size is shortened so that no component can cross
  a jump band in a single step without landing inside it.

Both the selection vector and the sliding set are recorded per sample so the
produced trajectories can be checked against the set-valued semantics.

``integrate`` is the one integration loop. It steps through segments of
constant Laplacian: a switching schedule is a sequence of them, a fixed
topology a single one. Once a full-length step returns its input bit for
bit, the rest of the segment replays only the time grid.

Free-flight blocks: while no component is banded and every piece of g is
affine, a step is the affine map ``x - dt * (L @ (s*x + c))`` with each
component's piece slope ``s`` and intercept ``c``. The loop then takes a run
of such steps in one tight loop and keeps them up to the first state that
changes its band-edge or piece index, leaves the state space, reaches the
consensus tolerance or is an exact fixed point; the normal step takes over
from there. The kept states are bit for bit those of single steps, and the
summary counts them in ``free_flight_steps``.
"""

from __future__ import annotations

import math
import numbers
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

# Free-flight block length in steps: it halves after a block that was cut and
# doubles after one that ran to its end, within these limits. The state rows
# of one block hold at most _BLOCK_ELEMENTS floats (32 KiB). A block is cut
# only after it is computed, so a longer one wastes more steps at its cut.
_BLOCK_MIN_STEPS = 8
_BLOCK_ELEMENTS = 1 << 12


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


def _check_stride(name: str, stride) -> None:
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {stride!r}")


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
        _check_stride("stride", stride)
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
        self.stride = stride
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

    def maybe_add_free(self, t: np.ndarray, x: np.ndarray, s: np.ndarray, c: np.ndarray) -> None:
        """``maybe_add`` for each row of a free-flight block: selection s*x + c, none sliding."""
        keep = slice((-self._count) % self.stride, None, self.stride)
        rows = x[keep]
        self.t.extend(t[keep].tolist())
        self.x.extend(rows.copy())
        self.gamma.extend(s * rows + c)
        self.sliding.extend(np.zeros(rows.shape, dtype=bool))
        self._count += len(t)

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
        self._block_len = _BLOCK_MIN_STEPS  # steps the next free-flight block tries
        self._block = None  # its state rows, allocated at the first block

    def selection(self, x: np.ndarray, k: np.ndarray):
        """Selection vector, sliding mask and fallback flag at ``x``.

        ``k`` is the band-edge index of ``x``: component i is banded iff
        ``k[i]`` is odd, and its jump is ``k[i] // 2``.
        """
        banded = (k & 1).astype(bool)
        gamma = self.g.values(x)
        sliding = np.zeros(len(x), dtype=bool)
        fallback = False
        if banded.any():
            b = np.flatnonzero(banded)
            f = np.flatnonzero(~banded)
            bi = k[b] // 2
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
        return gamma, sliding, fallback

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
            gamma, sliding, fallback = self.selection(x, k)
            v = -(self.lap @ gamma)
            v[sliding] = 0.0
            x_new, dt = self._capped_step(x, v, k, in_band, dt)
            x_new[sliding] = self.bxs[k[sliding] // 2]
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

    def free_flight(self, x: np.ndarray, t: float, t_end: float, tiny: float,
                    consensus_tol: float | None):
        """A block of free steps from ``x``, bit for bit the ones ``advance`` takes.

        Returns the times and states of the block, start included, and each
        component's piece slope and intercept; None when no step can be taken
        this way. The block ends before a step of less than full length or one
        from within ``tiny`` of ``t_end``, and at the first state that reaches
        ``consensus_tol`` (None: not looked for) or is an exact fixed point.
        """
        g = self.g
        if not g._all_affine:
            return None
        k0 = self.edges.searchsorted(x, side="right")
        if np.count_nonzero(k0 & 1):
            return None
        dt = self.opts.dt
        n = len(x)
        length = self._block_len
        times = np.full(length + 1, dt)
        times[0] = t
        np.add.accumulate(times, out=times)  # sequential sums: the grid of repeated t += dt
        starts = times[:-1]
        m = int(np.count_nonzero((starts < t_end - tiny) & (t_end - starts >= dt)))
        if m == 0:
            return None
        if self._block is None or len(self._block) <= length:
            self._block = np.empty((length + 1, n))
            self._rows = list(self._block)
            self._gamma, self._v = np.empty(n), np.empty(n)
        lap, rows, gamma, v = self.lap, self._rows, self._gamma, self._v
        # the piece index, not k0 // 2: a continuity junction splits a band gap
        p0 = g._junctions.searchsorted(x, side="left")
        s, c = g._slopes[p0], g._intercepts[p0]
        rows[0][:] = x
        e = m
        with np.errstate(over="ignore", invalid="ignore"):
            prev = rows[0].tobytes()
            for j in range(m):
                # x - dt*(L @ gamma) is x + dt*(-(L @ gamma)): negation is exact
                np.multiply(s, rows[j], gamma)  # positional out: a keyword costs 10%
                np.add(gamma, c, gamma)
                np.matmul(lap, gamma, v)
                np.multiply(v, dt, v)
                np.subtract(rows[j], v, rows[j + 1])
                cur = rows[j + 1].tobytes()
                if cur == prev:  # a fixed point: ``advance`` finds it and the loop replays
                    e = j
                    break
                prev = cur
            new = self._block[1:e + 1]
            stop = ((self.edges.searchsorted(new, side="right") != k0).any(axis=1)
                    | (g._junctions.searchsorted(new, side="left") != p0).any(axis=1)
                    | ~np.isfinite(new).all(axis=1))
            if stop.any():
                e = int(stop.argmax())
            if consensus_tol is not None:
                reached = new[:e].max(axis=1) - new[:e].min(axis=1) < consensus_tol
                if reached.any():
                    e = int(reached.argmax()) + 1
        if e < m:
            self._block_len = max(_BLOCK_MIN_STEPS, length // 2)
        elif m == length:
            self._block_len = min(2 * length, max(_BLOCK_MIN_STEPS, _BLOCK_ELEMENTS // n))
        if e == 0:
            return None
        return times[:e + 1], self._block[:e + 1], s, c


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
    free_flight_steps: int  # of ``steps``, taken inside free-flight blocks
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
    _check_stride("record_stride", record_stride)
    x = np.asarray(x0, dtype=float)
    rec = _Recorder(record_stride)
    taken: list[tuple[float, float, float]] = []
    t = 0.0
    steps = fallback_steps = fixed_point_steps = free_flight_steps = 0
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
            block = stepper.free_flight(x, t, t_end, tiny,
                                        opts.consensus_tol if time_to_tol is None else None)
            if block is not None:
                times, states, s, c = block
                rec.maybe_add_free(times[:-1], states[:-1], s, c)
                steps += len(times) - 1
                free_flight_steps += len(times) - 1
                t, x = float(times[-1]), states[-1].copy()
                continue
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
    if not taken:
        raise ValueError("no segments")
    gamma, sliding, _ = stepper.selection(x, stepper.edges.searchsorted(x, side="right"))
    rec.add(t, x, gamma, sliding)

    meta = {"dt": opts.dt, "band": opts.band, "t_max": opts.t_max, "record_stride": record_stride}
    summary = RunSummary(
        consensus_reached=time_to_tol is not None,
        time_to_tol=time_to_tol,
        final_disagreement=float(x.max() - x.min()),
        steps=steps,
        fallback_steps=fallback_steps,
        fixed_point_steps=fixed_point_steps,
        free_flight_steps=free_flight_steps,
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

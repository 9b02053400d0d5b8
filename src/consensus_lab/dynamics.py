"""Integration of x' = -L g(x) with sliding-mode handling at jump points.

The integrator is explicit Euler with two discontinuity-aware ingredients,
both decided once per step by one band test: a component lies in band k,
``[b_k - band, b_k + band]`` around jump abscissa ``b_k``, exactly when its
band-edge index is 2k + 1.

* selections: banded components get the coupling value that zeroes their
  velocity (the sliding condition), ``gamma_b = K @ gamma_f`` with the
  operator ``K = -solve(L_bb, L_bf)`` built once per banded set, clamped to
  their jump's interval ``[g(b_k-), g(b_k+)]``; strictly interior values mean
  the component slides and its state is pinned to ``b_k``. A rank-deficient
  ``L_bb`` has no operator and takes the jump midpoints (the fallback),
* event capping: the step size is shortened so that no component can cross
  a jump band in a single step without landing inside it.

Both the selection vector and the sliding set are recorded per sample so the
produced trajectories can be checked against the set-valued semantics.

``integrate`` is the one integration loop and ``_Stepper.block`` the one
stepping routine; the public ``step`` is a block of one step. The loop steps
through segments of constant Laplacian: a switching schedule is a sequence of
them, a fixed topology a single one. A run builds one stepper, so the block
length and the buffers carry across switches. A cell lies between consecutive
band edges and junctions raised one ulp; its index is the sum of the band-edge
index k and the piece index p. The stepper keeps one entry, for the last cell
it read: the banded set and the slope and intercept rows, built when it enters
the cell, and the map B, built on the cell's first map step. ``selection``, a
block's first step and its post-check read it; a new segment drops it. A block
returns its last state's k and whether that state is within the consensus
tolerance, so the loop finds both only for the run's first state: a replay or
a switch leaves x as it is. Once a full-length step returns its input bit for
bit, the segment's later full-length steps replay only the time grid, in
vectorized chunks. A short last step is taken as a block: it is computed
differently from a full one, so it need not round back to x.

Flight steps: when every piece of g is affine, a full-length step whose banded
components all slide and sit on their abscissas bit for bit is one affine map,
``x - B @ [x; 1]`` with ``B = dt * L @ G`` (see ``_Stepper._map_for``); a free
step is the case with no banded component. A block's first step, and so
``step``, takes it unless it passes a whole band. Every other step (capped,
short, with a clipped or unpinned banded component, or with a callable piece)
is ``x - dt * (L @ gamma)`` on the selection, its sliding components pinned.
After a first step that was full length, moved x, kept k and left every banded
component sliding, each later step of the block is the map: one dot and one
subtract on the row ``[x, 1]``, in one tight loop. A post-check of a few
whole-block calls then keeps the steps up to the first state that leaves its
cell or the state space (one bracket test per entry), repeats the one before
bit for bit (an exact fixed point, which the next block's first step finds) or
reaches the consensus tolerance, and up to the first banded selection that is
not strictly inside its jump interval; the next block starts there. Every later
step maps its row as the one before did, so an exact repeat lasts to the
block's end and is looked for only when the block's last two states repeat.
The selections, ``s*x + c`` with the banded entries ``K @ gamma_f`` or the
midpoints, are computed only up to the cell or repeat cut, bit for bit as
``selection`` computes them: a sliding flight's banded entries are one stacked
product on its gamma_f rows, gathered row-major into a buffer whose rows start
on 16 bytes, as a fresh gather's do. The kept states are bit for bit those of
single steps. The later steps count in ``free_flight_steps`` with no banded
component and in ``sliding_flight_steps`` otherwise: ``steps`` is their sum,
plus ``fixed_point_steps``, plus one per block.
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
    root_weights,
    wra,
)
from .protocol import ClassAFunction, validated

# Block length in steps: it halves after a block that was cut and doubles
# after one that ran to its end, within these limits. The states of one block
# hold at most _BLOCK_ELEMENTS floats (32 KiB) besides their column of ones, as
# do its selection rows and the time grid of one fixed-point replay chunk. A
# block is cut only after it is computed, so a longer one wastes more steps at
# its cut.
_BLOCK_MIN_STEPS = 8
_BLOCK_ELEMENTS = 1 << 12


def _grid(t: float, t_end: float, dt: float, tiny: float, length: int):
    """The ``length + 1`` grid times from ``t``, as repeated ``t += dt`` sums them.

    Also returns how many of the starts lie before ``t_end - tiny`` with a whole ``dt`` left.
    """
    times = np.full(length + 1, dt)
    times[0] = t
    np.add.accumulate(times, out=times)
    starts = times[:-1]
    return times, int(np.count_nonzero((starts < t_end - tiny) & (t_end - starts >= dt)))


def _first_row(mask: np.ndarray, none: int) -> int:
    """The first row of the 2-D ``mask`` with a True entry, from one flat argmax; ``none`` if it has none."""
    i = int(mask.argmax())
    return i // mask.shape[1] if mask.flat[i] else none


def _stacked_selections(op: np.ndarray, gs: np.ndarray, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``op @ gamma[f]`` for each row ``gamma`` of ``gs``, in one stacked product, bit for bit.

    Each row of gamma_f is gathered into a row of ``out``: a unit-stride vector on a 16-byte
    boundary (the row width is even), as the fresh gather ``gamma[f]`` is. A plain
    ``gs[:, f]`` is column-major, and the products of its strided rows round differently.
    """
    gf = out[:len(gs), :len(f)]
    np.take(gs, f, axis=1, out=gf)
    return np.matmul(op, gf[:, :, None])[:, :, 0]


def _check_length(x: np.ndarray, lap: np.ndarray) -> None:
    """A ValueError unless the state ``x`` has one entry per row of the Laplacian ``lap``."""
    if x.shape != (len(lap),):
        raise ValueError(f"state must have length {len(lap)}")


def band_edges(xs: np.ndarray, band: float) -> list[float]:
    """Edges of the bands [b - band, b + band] around the abscissas b in ``xs``; a ValueError if two overlap.
    ``searchsorted(edges, x, side="right")`` is odd exactly when x is in a band, and counts those below."""
    edges = [e for b in xs.tolist() for e in (b - band, math.nextafter(b + band, math.inf))]
    if edges != sorted(edges):
        raise ValueError("jump bands overlap: breakpoints must be more than 2*band apart")
    return edges


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class State:
    t: float
    x: np.ndarray


class Disagreement(NamedTuple):
    vmax: float
    vmin: float
    spread: float


def disagreement(x: np.ndarray) -> Disagreement:
    """Max, min and their difference (the disagreement V) as Python floats: V overflows to inf, unwarned."""
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

    def to_csv(self, path: str | Path) -> None:
        """Write one ``t,x_0,...,x_{n-1},V`` row per recorded sample: ``record_stride`` is the only stride.

        Each float is printed as its ``repr``, the shortest string that reads back to it. Rows
        go to the file in chunks of at most ``_BLOCK_ELEMENTS`` floats, so writing holds no more
        than a chunk and its text in memory. A chunk is one ``orjson.dumps``, split into rows at
        ``],[``: orjson's Ryū digits are ``repr``'s, and for ±0.0 and magnitudes in [1e-4, 1e16)
        both print them in plain decimal. The rows with a value outside that range, where orjson
        prints 0.00001, 1e16 and null for ``repr``'s 1e-05, 1e+16 and inf, are printed again by
        one more ``orjson.dumps``, with each such value replaced by its ``repr`` string.
        """
        import orjson  # imported here: only a run that writes its trajectory needs it

        rows = max(1, _BLOCK_ELEMENTS // (self.n + 2))
        with open(path, "wb") as f:
            f.write(("t," + ",".join(f"x_{i}" for i in range(self.n)) + ",V\n").encode())
            for k in range(0, len(self.t), rows):
                chunk = np.column_stack((self.t[k:k + rows], self.x[k:k + rows], self.spread[k:k + rows]))
                size = np.abs(chunk)
                outside = ~(((size >= 1e-4) & (size < 1e16)) | (chunk == 0))
                lines = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
                redo = np.flatnonzero(outside.any(axis=1))
                # tolist() gives Python floats, whose repr is the shortest round-trip form
                fixed = chunk[redo].tolist()
                for i, j in zip(*np.nonzero(outside[redo])):
                    fixed[i][j] = repr(fixed[i][j])
                text = orjson.dumps(fixed)[2:-2].replace(b'"', b"")  # the repr strings unquoted
                for i, line in zip(redo.tolist(), text.split(b"],[")):
                    lines[i] = line
                f.write(b"\n".join(lines) + b"\n")


class _Recorder:
    """The samples of a run that the stride keeps, each held once.

    Every record call appends one chunk per field: the times as a 1-D array and
    ``x``, ``gamma`` and ``sliding`` as 2-D arrays of one row per kept sample.
    A block's rows are copied out of the stepper's reused buffers. The rows of
    a replayed fixed point are ``np.broadcast_to`` views of one row, with no
    memory per sample. ``build`` joins the chunks one field at a time and drops
    each field's chunks as it goes.
    """

    def __init__(self, stride: int):
        self.stride = stride
        self.chunks: dict[str, list[np.ndarray]] = {"t": [], "x": [], "gamma": [], "sliding": []}
        self._count = 0

    def _record(self, t: np.ndarray, x: np.ndarray, gamma: np.ndarray, sliding: np.ndarray) -> None:
        if len(t):
            for chunks, chunk in zip(self.chunks.values(), (t, x, gamma, sliding)):
                chunks.append(chunk)

    def add(self, t, x, gamma, sliding) -> None:
        """Records one sample, whatever the stride."""
        self._record(np.array([t]), x[None].copy(), gamma[None].copy(), sliding[None].copy())

    def _keep(self, count: int) -> slice:
        """The slice of the next ``count`` samples that the stride keeps; counts them."""
        keep = slice((-self._count) % self.stride, None, self.stride)
        self._count += count
        return keep

    def add_block(self, t: np.ndarray, x: np.ndarray, gamma: np.ndarray, sliding: np.ndarray) -> None:
        """Records the steps of a block that the stride keeps.

        ``t``, ``x`` and ``gamma`` hold one row per step; every step shares the ``sliding`` mask.
        """
        keep = self._keep(len(t))
        t = t[keep].copy()
        self._record(t, x[keep].copy(), gamma[keep].copy(), sliding[None].repeat(len(t), axis=0))

    def replay(self, t: float, t_end: float, dt: float, tiny: float, x, gamma, sliding):
        """Records each full-length step from the fixed point ``x`` towards ``t_end``; none moves x.

        The times are those of ``t += dt`` while ``t < t_end - tiny`` and a whole
        ``dt`` is left, in chunks of at most ``_BLOCK_ELEMENTS`` grid times; a
        short last step is not replayed. Returns the time reached and the step count.
        """
        rows = x.copy(), gamma.copy(), sliding.copy()
        steps = 0
        while t < t_end - tiny:
            times, m = _grid(t, t_end, dt, tiny, min(_BLOCK_ELEMENTS, int((t_end - t) / dt) + 1))
            if m == 0:  # less than dt is left
                break
            kept = times[:m][self._keep(m)].copy()
            self._record(kept, *(np.broadcast_to(row, (len(kept), len(row))) for row in rows))
            t = float(times[m])
            steps += m
        return t, steps

    def build(self, meta: dict) -> Trajectory:
        # pop each field's chunks, so that they are freed once joined
        fields = {name: np.concatenate(self.chunks.pop(name)) for name in list(self.chunks)}
        x = fields["x"]
        with np.errstate(over="ignore"):  # a spread past the float range is inf
            spread = x.max(axis=1) - x.min(axis=1)
        return Trajectory(**fields, spread=spread, meta=meta)


class _BandedSet(NamedTuple):
    """The selection structure of one band-edge index with banded components."""

    b: np.ndarray  # the banded components
    f: np.ndarray  # the other indices
    lo: np.ndarray  # g(b_k-) of each banded component's jump
    hi: np.ndarray  # g(b_k+)
    mid: np.ndarray  # the midpoint fallback selection
    op: np.ndarray | None  # K = -solve(L_bb, L_bf); None when L_bb is rank-deficient


@dataclass(slots=True)
class _Cell:
    """A stepper's entry for the cell of index vector ``k + p``: band-edge index ``k``, piece index ``p``."""

    key: bytes  # (k + p).tobytes()
    p: np.ndarray
    banded: _BandedSet | None  # the banded set at k; None if no component is banded
    s: np.ndarray | None  # the slope and intercept rows at p; None unless g is all-affine
    c: np.ndarray | None
    map: np.ndarray | None = None  # B of ``_Stepper._map_for``, built on the cell's first map step


class _Stepper:
    """Band edges (``band_edges``), cells and buffers for stepping, one Laplacian at a time; see ``use``."""

    def __init__(self, lap: np.ndarray, g: ClassAFunction, opts: SimOptions):
        self.g = g
        self.opts = opts
        # + 0.0 turns a -0.0 abscissa into 0.0, so that a pinned component minus
        # a zero velocity (of either sign) keeps its bits in a block
        self.bxs = g.breakpoint_xs + 0.0
        self.blo = g.breakpoint_left
        self.bhi = g.breakpoint_right
        edges = band_edges(self.bxs, opts.band)
        self.edges = np.array(edges)
        # x's cell index k + p, with p its piece index: a junction j lies below x,
        # j < x, exactly when nextafter(j, inf) <= x. k and p never fall as x
        # grows, so x keeps its cell exactly when it keeps both.
        self.cells = np.array(sorted(edges + [math.nextafter(j, math.inf) for j in g._junctions.tolist()]))
        # cell c is [lo[c], hi[c]); -DBL_MAX and inf close the outer two to the finite floats
        self._cell_lo = np.concatenate(([-np.finfo(float).max], self.cells))
        self._cell_hi = np.concatenate((self.cells, [math.inf]))
        self._block_len = _BLOCK_MIN_STEPS  # steps the next block tries
        self._max_len = max(_BLOCK_MIN_STEPS, _BLOCK_ELEMENTS // max(1, len(lap)))  # the longest block
        self._block = None  # its state rows, allocated at the first block
        self.use(lap)

    def use(self, lap: np.ndarray) -> "_Stepper":
        """Steps with Laplacian ``lap`` from now on, keeping block length and buffers; drops the entry."""
        self.lap = np.ascontiguousarray(lap, dtype=float)
        self._entry: _Cell | None = None  # the last cell's
        return self

    def _banded_set(self, k: np.ndarray) -> _BandedSet:
        """The selection structure at band-edge index ``k``, which has a banded component.

        The rank verdict is ``matrix_rank(L_bb)``: singular values up to
        ``eps * max(shape)`` times the largest count as zero, numpy's
        least-squares cutoff.
        """
        banded = (k & 1).astype(bool)
        b = np.flatnonzero(banded)
        f = np.flatnonzero(~banded)
        bi = k[b] // 2
        lo, hi = self.blo[bi], self.bhi[bi]
        lbb = self.lap[np.ix_(b, b)]
        op = None
        if np.linalg.matrix_rank(lbb) == len(b):
            op = -np.linalg.solve(lbb, self.lap[np.ix_(b, f)])
        return _BandedSet(b, f, lo, hi, 0.5 * (lo + hi), op)

    def _cell(self, x: np.ndarray, k: np.ndarray) -> _Cell:
        """The entry of the cell of ``x``, whose band-edge index is ``k``: the last one, or a new one."""
        g, cell = self.g, self._entry
        p = g._junctions.searchsorted(x, side="left")
        key = (k + p).tobytes()
        if cell is None or cell.key != key:
            banded = self._banded_set(k) if np.count_nonzero(k & 1) else None
            s, c = (g._slopes[p], g._intercepts[p]) if g._all_affine else (None, None)
            self._entry = cell = _Cell(key, p, banded, s, c)
        return cell

    def selection(self, x: np.ndarray, k: np.ndarray):
        """Selection vector, sliding mask and fallback flag at ``x``, whose band-edge index is ``k``:
        component i is banded iff ``k[i]`` is odd, and its jump is ``k[i] // 2``."""
        cell = self._cell(x, k)
        bs = cell.banded
        gamma = self.g.values(x) if cell.s is None else cell.s * x + cell.c
        sliding = np.zeros(len(x), dtype=bool)
        fallback = bs is not None and bs.op is None
        if bs is not None:
            sol = bs.mid if fallback else np.clip(bs.op @ gamma[bs.f], bs.lo, bs.hi)
            gamma[bs.b] = sol
            sliding[bs.b] = (sol > bs.lo) & (sol < bs.hi)
        return gamma, sliding, fallback

    def _off_cell(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Whether each entry of ``x`` is outside cell ``c`` (of its column) or not finite.

        As written, the bracket ``lo[c] <= x < hi[c]`` fails NaN and both infinities.
        """
        return (x < self._cell_lo[c]) | ~(x < self._cell_hi[c])

    def _map_for(self, cell: _Cell) -> np.ndarray:
        """``B = dt * L @ G`` at the piece slopes ``s``, intercepts ``c`` and banded set of ``cell``.

        ``G = [diag(s) | c]`` maps ``[x; 1]`` to ``s*x + c`` for each component's
        piece slope ``s`` and intercept ``c``, except that a banded row is ``K @
        G_f``, or ``[0 | mid]`` with no operator. The banded rows of ``B`` are
        zero: the step ``x - B @ [x; 1]`` keeps the pinned components' bits.
        """
        lap, bs, s, c = self.lap, cell.banded, cell.s, cell.c
        if bs is not None:  # G_b; the banded rows of [diag(s) | c] then drop out
            gb = (np.column_stack((np.zeros((len(bs.b), len(s))), bs.mid)) if bs.op is None
                  else bs.op @ np.column_stack((np.diag(s), c))[bs.f])
            s, c = s.copy(), c.copy()
            s[bs.b] = c[bs.b] = 0.0
        m = np.column_stack((lap * s, lap @ c))  # L @ [diag(s) | c], with no n^3 product
        if bs is not None:
            m += lap[:, bs.b] @ gb
            m[bs.b] = 0.0
        return self.opts.dt * m

    @np.errstate(over="ignore", invalid="ignore")  # the finiteness checks catch an overflow
    def block(self, x: np.ndarray, k: np.ndarray, t: float, cap: float, t_end: float,
              tiny: float, consensus_tol: float | None):
        """A block of steps from ``x``, whose band-edge index is ``k``; see the module docstring.

        The first step is at most ``cap`` long. The later ones follow the grid of full steps
        towards ``t_end``, none from within ``tiny`` of it, and the first state that reaches
        ``consensus_tol`` (None: not looked for) ends the block. Returns the block's times and
        states, start included, each step's selection, the sliding mask all steps share, whether
        they took the midpoint fallback, the first step's length, and the last state's band-edge
        index and whether it reached ``consensus_tol`` (False if not looked for).
        """
        if not cap > 0:  # NaN included, which min would drop
            raise ValueError("step size collapsed to zero")
        dt = min(self.opts.dt, cap)
        g, lap, n, length = self.g, self.lap, len(x), self._block_len
        if self._block is None or len(self._block) <= length:
            # rows [x, 1] for the map's constant column; a short first block keeps ``step`` cheap
            size = length if self._block is None else self._max_len
            self._block, self._gammas = np.ones((size + 1, n + 1)), np.empty((size, n))
            # the gamma_f rows of ``_stacked_selections``: an even width starts each on 16 bytes
            self._gf = np.empty((size, n + (n & 1)))
            # v's trailing 0 keeps each row's 1 when v is subtracted from the whole row
            self._rows, self._v = list(self._block), np.zeros(n + 1)
        rows, v, vn = self._rows, self._v, self._v[:n]
        states = self._block[:, :n]
        gamma, sliding, fallback = self.selection(x, k)
        cell = self._entry  # x's, which ``selection`` just read
        states[0], self._gammas[0] = x, gamma
        x1 = states[1]
        bs = cell.banded
        pinned = np.count_nonzero(sliding) == (0 if bs is None else len(bs.b))  # all banded ones slide
        xb = self.bxs[k[sliding] // 2]  # the sliding components' abscissas
        mapped = dt == self.opts.dt and g._all_affine and pinned and x[sliding].tobytes() == xb.tobytes()
        if mapped:
            cell.map = self._map_for(cell) if cell.map is None else cell.map
            cell.map.dot(rows[0], vn)
            np.subtract(x, vn, x1)
            k1 = self.edges.searchsorted(x1, side="right")
            mapped = not np.count_nonzero(np.abs(k1 - k) > 1)  # a whole band passed: redone, capped
        if not mapped:
            np.dot(lap, gamma, vn)  # 0.5 us less than matmul
            w = np.full(n, dt)
            w[sliding] = 0.0
            np.subtract(x, vn * w, x1)  # x + dt*(-v) bit for bit: negation is exact
            k1 = self.edges.searchsorted(x1, side="right")
            crossed = np.abs(k1 - k) > 1 + (k & 1)
            if np.count_nonzero(crossed):
                kc, vc = k[crossed], vn[crossed]
                b = self.bxs[np.where(vc < 0, (kc + 1) // 2, kc // 2 - 1)]
                dt = min(dt, float(((x[crossed] - b) / vc).min()))
                np.minimum(w, dt, out=w)
                np.subtract(x, vn * w, x1)
                k1 = self.edges.searchsorted(x1, side="right")
            x1[sliding] = xb
        if not np.isfinite(x1).all():
            raise IntegrationError(f"state overflow at t={t}")
        t1, e, m = t + dt, 1, 0  # m: the grid's full steps, none outside a flight
        times = np.array([t, t1])
        if (dt == self.opts.dt and t1 < t_end - tiny and t_end - t1 >= dt and g._all_affine
                and x1.tobytes() != x.tobytes() and (k1 == k).all() and pinned):
            times, m = _grid(t, t_end, dt, tiny, length)
            # the piece index, not k // 2: a continuity junction splits a band gap
            cell = self._cell(x1, k)
            cell.map = self._map_for(cell) if cell.map is None else cell.map
            # the bound dot is np.dot without its dispatch: 0.2 us less a step
            dot, subtract = cell.map.dot, np.subtract
            for j in range(1, m):
                dot(rows[j], vn)
                subtract(rows[j], v, rows[j + 1])
            # the first later state that leaves its cell or the state space
            e = _first_row(self._off_cell(states[2:m + 1], k + cell.p), m - 1) + 1
            # an exact repeat lasts to the block's end; bit patterns: == would equate -0.0 and 0.0
            if states[m].tobytes() == states[m - 1].tobytes():
                repeats = (states[2:m + 1].view(np.uint64) == states[1:m].view(np.uint64)).all(axis=1)
                e = min(e, int(repeats.argmax()) + 1)
            # the selections of the later steps up to that cut, bit for bit as ``selection`` computes them
            gs = self._gammas[1:e]
            np.multiply(cell.s, states[1:e], gs)
            np.add(gs, cell.c, gs)
            if bs is not None and e > 1:  # a later step is not kept when its selection is clipped
                gs[:, bs.b] = bs.mid if bs.op is None else _stacked_selections(bs.op, gs, bs.f, self._gf)
                gb = gs[:, bs.b]
                e = _first_row(~((gb > bs.lo) & (gb < bs.hi)), e - 1) + 1
        reached = False  # of the last state, whose band-edge index is k1: a flight's kept states keep it
        if consensus_tol is not None:  # one row per component: max and min are exact in any order
            kept = states[1:e + 1].T.copy()
            near = kept.max(axis=0) - kept.min(axis=0) < consensus_tol
            i = int(near.argmax())
            if near[i]:
                e, reached = i + 1, True
        if e < m:
            self._block_len = max(_BLOCK_MIN_STEPS, length // 2)
        elif m == length:
            self._block_len = min(2 * length, self._max_len)
        return times[:e + 1], states[:e + 1], self._gammas[:e], sliding, fallback, dt, k1, reached


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
    _check_length(x, lap)
    k = stepper.edges.searchsorted(x, side="right")
    cap = dt_limit if dt_limit is not None else opts.dt
    # a block that ends at state.t has no time left for a second step
    times, states, gamma, sliding, fallback, dt, *_ = stepper.block(x, k, state.t, cap, state.t, 0.0, None)
    return StepResult(
        state=State(float(times[1]), states[1].copy()),
        gamma=gamma[0].copy(),
        sliding_set=tuple(int(i) for i in np.flatnonzero(sliding)),
        dt=dt,
        used_fallback=fallback,
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
    free_flight_steps: int  # of ``steps``, after a block's first, with no banded component
    sliding_flight_steps: int  # of ``steps``, after a block's first, with banded components
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
    if isinstance(record_stride, bool) or not isinstance(record_stride, numbers.Integral) \
            or record_stride < 1:
        raise ValueError(f"record_stride must be an integer >= 1, got {record_stride!r}")
    x = np.asarray(x0, dtype=float)
    rec = _Recorder(record_stride)
    taken: list[tuple[float, float, float]] = []
    t = 0.0
    steps = fallback_steps = fixed_point_steps = free_flight_steps = sliding_flight_steps = 0
    time_to_tol: float | None = None
    tiny = 1e-12 * max(1.0, opts.t_max)
    stepper = k = None
    for lap, t_end in segments:
        _check_length(x, lap)
        stepper = stepper.use(lap) if stepper else _Stepper(lap, g, opts)
        v_start = disagreement(x).spread
        if k is None:  # x's band-edge index and consensus verdict; each block returns its last state's
            k, reached = stepper.edges.searchsorted(x, side="right"), v_start < opts.consensus_tol
        while True:
            if t >= t_end - tiny:
                t = t_end
            if time_to_tol is None and reached:
                time_to_tol = t
            if t == t_end or (stop_at_consensus and time_to_tol is not None):
                break
            times, states, gamma, sliding, fallback, dt, k, reached = stepper.block(
                x, k, t, t_end - t, t_end, tiny, opts.consensus_tol if time_to_tol is None else None)
            rec.add_block(times[:-1], states[:-1], gamma, sliding)
            e = len(times) - 1
            steps += e
            fallback_steps += e * fallback
            if sliding.any():  # the steps after the first pin every banded component
                sliding_flight_steps += e - 1
            else:
                free_flight_steps += e - 1
            if e == 1 and dt == opts.dt and states[1].tobytes() == x.tobytes():
                # A full-length step is a function of x alone: every later one of
                # this segment returns x with the same selection. Replay them; a
                # short last step is the next block's.
                t, m = rec.replay(float(times[1]), t_end, opts.dt, tiny, x, gamma[0], sliding)
                steps += m
                fixed_point_steps += m
                fallback_steps += fallback * m
                continue
            t, x = float(times[-1]), states[-1].copy()
        taken.append((v_start, disagreement(x).spread, t))
        if stop_at_consensus and time_to_tol is not None:
            break
    if not taken:
        raise ValueError("no segments")
    gamma, sliding, _ = stepper.selection(x, k)
    rec.add(t, x, gamma, sliding)

    meta = {"dt": opts.dt, "band": opts.band, "t_max": opts.t_max, "record_stride": record_stride}
    summary = RunSummary(
        consensus_reached=time_to_tol is not None,
        time_to_tol=time_to_tol,
        final_disagreement=disagreement(x).spread,
        steps=steps,
        fallback_steps=fallback_steps,
        fixed_point_steps=fixed_point_steps,
        free_flight_steps=free_flight_steps,
        sliding_flight_steps=sliding_flight_steps,
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
    if not x.size or not np.isfinite(x).all():
        raise ValueError("x0 must be non-empty and finite")
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
    return _lyapunov_VL(x, left_null_vector(np.asarray(lap, dtype=float)), g, xbar)


def _lyapunov_VL(x: np.ndarray, xi: np.ndarray, g: ClassAFunction, xbar: float) -> float:
    """``lyapunov_VL`` with the left null vector ``xi`` given."""
    gbar = g.eval_interval(xbar).mid
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, xk in zip(xi, x):
        total += weight * (g.definite_integral(xbar, float(xk)) - gbar * (float(xk) - xbar))
    return float(total)


def finite_time_bound(graph: WeightedDigraph, g: ClassAFunction, x0: np.ndarray) -> float | None:
    """Upper bound on the time to consensus when the predicted value sits on a jump.

    Returns ``4 V_L(x0) / (|lambda_2| * jump^2)`` where lambda_2 is the second
    largest eigenvalue of -(Xi L + L^T Xi), or None when the weighted root
    average of x0 is a continuity point of g (bound not applicable): farther than
    ``1e-9 * max(1, max|x0|)``, a tolerance scaled like its rounding error, from every jump.
    """
    part, xi = root_weights(graph)
    if part.s2:
        raise ValueError("finite-time bound needs a strongly connected graph")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (graph.n,):
        raise ValueError(f"state must have length {graph.n}")
    xbar = float(xi @ x0[list(part.s1)])  # wra(x0, graph), from the same root weights
    tol = 1e-9 * max(1.0, np.abs(x0).max())
    hits = [b for b in g.breakpoints if abs(b.x - xbar) <= tol]
    if not hits:
        return None
    bp = hits[0]
    if graph.n == 1:
        return 0.0
    lap = laplacian(graph)
    q = -(np.diag(xi) @ lap + lap.T @ np.diag(xi))
    lam2 = float(np.linalg.eigvalsh(q)[-2])
    vl = _lyapunov_VL(x0, xi, g, bp.x)
    return 4.0 * vl / (abs(lam2) * bp.jump**2)

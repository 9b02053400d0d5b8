"""Piecewise strictly increasing coupling functions with upward jumps.

A coupling function is described by pieces tiling the real line; adjacent
pieces meet at junction points. Junctions where the one-sided limits differ
are breakpoints (true discontinuities) and carry the interval
``[g(d-), g(d+)]`` used by the set-valued evaluation; junctions with equal
limits are ordinary continuity points. The value *at* a breakpoint is a
measure-zero convention (midpoint) — only the one-sided limits matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SAMPLES_PER_PIECE = 10_000  # density for monotonicity / separation estimates


@dataclass(frozen=True)
class AffinePiece:
    lo: float
    hi: float
    slope: float
    intercept: float

    def value(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class CallablePiece:
    """Monotone branch given as a black box with declared one-sided limits.

    ``lo_limit`` is the limit as x -> lo+ and ``hi_limit`` as x -> hi-;
    both may be nan when the corresponding endpoint is infinite.
    """

    lo: float
    hi: float
    fn: Callable[[float], float]
    lo_limit: float = math.nan
    hi_limit: float = math.nan

    def value(self, x: float) -> float:
        return float(self.fn(x))


Piece = AffinePiece | CallablePiece


@dataclass(frozen=True)
class Breakpoint:
    x: float
    left: float
    right: float

    @property
    def jump(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class FilippovInterval:
    lo: float
    hi: float

    def __contains__(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Violation:
    clause: int
    where: float | str
    message: str


class ClassAFunction:
    """Scalar map assembled from strictly increasing pieces.

    Construction checks only the structure (pieces sorted, contiguous, and
    covering the whole line); the monotonicity and upward-jump clauses are
    checked by :func:`validate_class_a`.
    """

    def __init__(self, pieces: Sequence[Piece], name: str | None = None):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("at least one piece is required")
        if pieces[0].lo != -math.inf or pieces[-1].hi != math.inf:
            raise ValueError("pieces must cover the real line (lo=-inf .. hi=+inf)")
        for p in pieces:
            if not p.lo < p.hi:
                raise ValueError(f"piece interval ({p.lo}, {p.hi}) is empty")
        for a, b in zip(pieces, pieces[1:]):
            if a.hi != b.lo:
                raise ValueError(f"pieces must be contiguous: gap between {a.hi} and {b.lo}")
        self.pieces = pieces
        self.name = name
        self._junctions = np.array([p.hi for p in pieces[:-1]])
        self._junction_limits = [
            (_limit_from_left(a), _limit_from_right(b)) for a, b in zip(pieces, pieces[1:])
        ]
        self.breakpoints: tuple[Breakpoint, ...] = tuple(
            Breakpoint(float(x), left, right)
            for x, (left, right) in zip(self._junctions, self._junction_limits)
            if right != left
        )
        self.breakpoint_xs = np.array([b.x for b in self.breakpoints])
        self.breakpoint_left = np.array([b.left for b in self.breakpoints])
        self.breakpoint_right = np.array([b.right for b in self.breakpoints])
        self._all_affine = all(isinstance(p, AffinePiece) for p in pieces)
        if self._all_affine:
            self._slopes = np.array([p.slope for p in pieces])
            self._intercepts = np.array([p.intercept for p in pieces])

    def value(self, x: float) -> float:
        """Point value; at a breakpoint returns the midpoint convention."""
        k = np.searchsorted(self._junctions, x, side="left")
        if k < len(self._junctions) and self._junctions[k] == x:
            left, right = self._junction_limits[k]
            return 0.5 * (left + right)
        return self.pieces[int(k)].value(x)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation away from breakpoints.

        Points exactly at a junction get the left-piece value; callers that
        care about breakpoints must handle them via :meth:`eval_interval`.
        """
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._junctions, xs, side="left")
        if self._all_affine:
            return self._slopes[idx] * xs + self._intercepts[idx]
        out = np.empty_like(xs)
        for i, (x, k) in enumerate(zip(xs.ravel(), idx.ravel())):
            out.ravel()[i] = self.pieces[int(k)].value(float(x))
        return out

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self.value(float(x))
        return self.values(x)

    def eval_interval(self, x: float) -> FilippovInterval:
        """Set-valued evaluation: {g(x)} off breakpoints, [g(x-), g(x+)] at one."""
        k = np.searchsorted(self._junctions, x, side="left")
        if k < len(self._junctions) and self._junctions[k] == x:
            left, right = self._junction_limits[k]
            return FilippovInterval(left, right)
        v = self.pieces[int(k)].value(x)
        return FilippovInterval(v, v)

    def definite_integral(self, a: float, b: float) -> float:
        """Integral of g over [a, b]; exact on affine pieces, quadrature otherwise."""
        if a == b:
            return 0.0
        sign = 1.0
        if b < a:
            a, b, sign = b, a, -1.0
        total = 0.0
        for piece in self.pieces:
            p, q = max(piece.lo, a), min(piece.hi, b)
            if p >= q:
                continue
            if isinstance(piece, AffinePiece):
                total += 0.5 * piece.slope * (q * q - p * p) + piece.intercept * (q - p)
            else:
                from scipy.integrate import quad  # imported here: only callable pieces need it

                total += quad(piece.value, p, q, limit=200)[0]
        return sign * total


def _limit_from_left(piece: Piece) -> float:
    """g(hi-) for a piece ending at a finite junction."""
    if isinstance(piece, AffinePiece):
        return piece.value(piece.hi)
    if math.isnan(piece.hi_limit):
        raise ValueError(f"callable piece ending at {piece.hi} needs a declared hi_limit")
    return piece.hi_limit


def _limit_from_right(piece: Piece) -> float:
    """g(lo+) for a piece starting at a finite junction."""
    if isinstance(piece, AffinePiece):
        return piece.value(piece.lo)
    if math.isnan(piece.lo_limit):
        raise ValueError(f"callable piece starting at {piece.lo} needs a declared lo_limit")
    return piece.lo_limit


def _sampling_window(piece: Piece, fallback_span: float = 10.0) -> tuple[float, float]:
    lo = piece.lo if math.isfinite(piece.lo) else min(piece.hi, 0.0) - fallback_span
    hi = piece.hi if math.isfinite(piece.hi) else max(piece.lo, 0.0) + fallback_span
    return lo, hi


def validate_class_a(g: ClassAFunction) -> Violation | None:
    """First violated class-membership clause, or None when the function is admissible.

    Clause 1 (breakpoints sorted and distinct) holds by construction, since
    ``ClassAFunction`` pieces are nonempty and contiguous. Clause 2 (strict
    increase on each piece) is exact for affine pieces and sampled densely for
    callable ones; clause 3 requires every jump to be upward.
    """
    for piece in g.pieces:
        if isinstance(piece, AffinePiece):
            if not piece.slope > 0:
                return Violation(
                    2, piece.lo, f"affine piece on ({piece.lo}, {piece.hi}) has slope {piece.slope} <= 0"
                )
        else:
            lo, hi = _sampling_window(piece)
            grid = np.linspace(lo, hi, SAMPLES_PER_PIECE)[1:-1]
            vals = np.array([piece.value(float(x)) for x in grid])
            if not (np.diff(vals) > 0).all():
                return Violation(
                    2, piece.lo, f"piece on ({piece.lo}, {piece.hi}) is not strictly increasing"
                )
    for x, (left, right) in zip(g._junctions, g._junction_limits):
        if right < left:
            return Violation(
                3, float(x), f"downward jump at {x}: g({x}+)={right} < g({x}-)={left}"
            )
    return None


def validated(g: ClassAFunction) -> ClassAFunction:
    violation = validate_class_a(g)
    if violation is not None:
        raise ValueError(f"not an admissible coupling function: {violation.message}")
    return g


@dataclass(frozen=True)
class SeparationEstimate:
    """Lower bound on difference quotients of g over a domain.

    ``exact`` is True when derived from affine slopes; otherwise the value is
    a sampled estimate. The separation assumption holds on the domain with
    ratio eps iff value >= eps > 0.
    """

    value: float
    exact: bool

    @property
    def satisfied(self) -> bool:
        return self.value > 0


def epsilon_separation(g: ClassAFunction, lo: float, hi: float) -> SeparationEstimate:
    """Infimum of (g(a) - g(b)) / (a - b) over continuity points of [lo, hi].

    Jumps are upward, so the infimum is attained within a single piece: the
    minimum slope for affine pieces (exact), or the minimum difference
    quotient on a dense grid for callable pieces (estimate). A NaN sample
    makes the value NaN, which is not satisfied.
    """
    if not lo < hi:
        raise ValueError("domain must be a nondegenerate interval")
    ratios = []
    exact = True
    for piece in g.pieces:  # they tile the real line, so some piece meets [lo, hi]
        p, q = max(piece.lo, lo), min(piece.hi, hi)
        if p >= q:
            continue
        if isinstance(piece, AffinePiece):
            ratios.append(piece.slope)
        else:
            exact = False
            grid = np.linspace(p, q, SAMPLES_PER_PIECE)
            vals = np.array([piece.value(float(x)) for x in grid])
            ratios.append((np.diff(vals) / np.diff(grid)).min())
    return SeparationEstimate(float(np.min(ratios)), exact)


def unit_jump() -> ClassAFunction:
    """Identity with a unit upward jump at the origin: x for x<0, x+1 for x>0."""
    return ClassAFunction(
        (AffinePiece(-math.inf, 0.0, 1.0, 0.0), AffinePiece(0.0, math.inf, 1.0, 1.0)),
        name="unit-jump",
    )


def identity() -> ClassAFunction:
    return ClassAFunction((AffinePiece(-math.inf, math.inf, 1.0, 0.0),), name="identity")


PRESETS: dict[str, Callable[[], ClassAFunction]] = {
    "unit-jump": unit_jump,
    "identity": identity,
}


def preset(name: str) -> ClassAFunction:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


def _parse_interval(v) -> tuple[float, float]:
    """The bounds of ``[lo, hi]`` as ``float`` reads them, None as inf; a ValueError for other than two."""
    lo, hi = (math.inf if b is None else float(b) for b in v)
    return lo, hi


def _field(where: str, value, parse=float, what: str = "numeric"):
    """``parse(value)``; a ValueError naming the field ``where`` if it cannot."""
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where} {value!r} is not {what}") from None


def from_config(spec: dict) -> ClassAFunction:
    """Build a coupling function from its config description.

    Either ``{"preset": name}`` or ``{"pieces": [...]}`` with each piece
    ``{"interval": [a, b], "kind": "affine", "slope": s, "intercept": c}``.
    An optional ``"breakpoints"`` list with explicit x/left/right entries is
    cross-checked against the limits derived from the pieces, to ``1e-9 * max(1, |limit|)``.
    """
    if "preset" in spec:
        return preset(spec["preset"])
    if "pieces" not in spec:
        raise ValueError("function spec needs either 'preset' or 'pieces'")
    pieces = []
    for i, p in enumerate(spec["pieces"]):
        if p.get("kind", "affine") != "affine":
            raise ValueError(f"piece {i}: only 'affine' pieces are supported in configs")
        lo, hi = _field(f"piece {i}: interval", p["interval"], _parse_interval, "a pair of numeric bounds")
        slope, intercept = (_field(f"piece {i}: {key}", p[key]) for key in ("slope", "intercept"))
        if not (math.isfinite(slope) and math.isfinite(intercept)):
            raise ValueError(f"piece {i}: slope and intercept must be finite, got {slope} and {intercept}")
        pieces.append(AffinePiece(lo, hi, slope, intercept))
    pieces.sort(key=lambda p: p.lo)
    g = ClassAFunction(pieces, name=spec.get("name"))
    for j, bp in enumerate(spec.get("breakpoints", ())):
        declared = Breakpoint(*(_field(f"breakpoints[{j}].{key}", bp[key])
                                for key in ("x", "left", "right")))
        match = [b for b in g.breakpoints if b.x == declared.x]
        if not match:
            raise ValueError(f"declared breakpoint at {declared.x} is not a junction of the pieces")
        got = match[0]
        if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                   for a, b in ((got.left, declared.left), (got.right, declared.right))):
            raise ValueError(
                f"declared limits at {declared.x} ({declared.left}, {declared.right}) "
                f"disagree with the pieces ({got.left}, {got.right})"
            )
    return validated(g)

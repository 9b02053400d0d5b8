"""Weighted directed graphs, Laplacians, root sets, and scrambling measures.

Weight convention: ``W[i, j] > 0`` iff there is a directed edge from vertex
``j`` to vertex ``i``. The Laplacian is ``L[i, j] = -W[i, j]`` off the
diagonal and ``L[i, i] = sum_j W[i, j]``, so every row of ``L`` sums to zero
and ``-L`` is a Metzler matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class NoSpanningTreeError(ValueError):
    """Raised when an operation needs a spanning tree and the graph has none."""


@dataclass(frozen=True)
class WeightedDigraph:
    """Simple weighted digraph on vertices 0..n-1 with nonnegative weights."""

    n: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weight matrix must be {self.n}x{self.n}, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if np.diag(w).any():
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedDigraph":
        """Build from (src, dst, weight) triples; an edge src->dst sets W[dst, src]."""
        w = np.zeros((n, n))
        for src, dst, weight in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={n}")
            if src == dst:
                raise ValueError(f"self-loop at vertex {src}")
            w[dst, src] = weight
        return cls(n, w)

    @classmethod
    def from_laplacian(cls, lap: np.ndarray) -> "WeightedDigraph":
        lap = np.asarray(lap, dtype=float)
        w = -lap.copy()
        np.fill_diagonal(w, 0.0)
        g = cls(lap.shape[0], w)
        if np.abs(lap.sum(axis=1)).max() > 1e-9 * max(1.0, np.abs(lap).max()):
            raise ValueError("matrix is not a Laplacian: rows do not sum to zero")
        return g

    def edges(self) -> list[tuple[int, int, float]]:
        """All (src, dst, weight) triples, sorted by (src, dst)."""
        dst, src = np.nonzero(self.weights)
        out = [(int(s), int(d), float(self.weights[d, s])) for s, d in zip(src, dst)]
        out.sort()
        return out


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Graph Laplacian with zero row sums and nonpositive off-diagonal entries."""
    lap = -g.weights.copy()
    np.fill_diagonal(lap, g.weights.sum(axis=1))
    return lap


@dataclass(frozen=True)
class RootPartition:
    """Split of the vertex set into roots ``s1`` and non-roots ``s2``.

    ``permutation[k]`` is the original index of the vertex at position ``k``
    after renumbering; applying it to the Laplacian produces a
    block-lower-triangular matrix with an all-zero block in rows ``s1`` x
    columns ``s2``.
    """

    s1: tuple[int, ...]
    s2: tuple[int, ...]

    @property
    def permutation(self) -> tuple[int, ...]:
        return self.s1 + self.s2

    def permuted(self, matrix: np.ndarray) -> np.ndarray:
        p = list(self.permutation)
        return matrix[np.ix_(p, p)]

    def root_block(self, lap: np.ndarray) -> np.ndarray:
        idx = list(self.s1)
        return lap[np.ix_(idx, idx)]


def _adjacency(g: WeightedDigraph) -> sp.csr_matrix:
    # csgraph wants A[i, j] != 0 meaning edge i -> j; our W is transposed.
    return sp.csr_matrix((g.weights > 0).T)


def root_partition(g: WeightedDigraph) -> RootPartition | None:
    """Root set of the graph, or None when no spanning tree exists.

    Uses strongly-connected-component condensation: a spanning tree exists
    iff the condensation has exactly one source component, and the roots are
    exactly that component's vertices.
    """
    if g.n == 1:
        return RootPartition((0,), ())
    n_comp, labels = connected_components(_adjacency(g), directed=True, connection="strong")
    if n_comp == 1:
        return RootPartition(tuple(range(g.n)), ())
    has_incoming = np.zeros(n_comp, dtype=bool)
    dst, src = np.nonzero(g.weights)
    cross = labels[src] != labels[dst]
    has_incoming[labels[dst[cross]]] = True
    sources = np.flatnonzero(~has_incoming)
    if len(sources) != 1:
        return None
    root_label = sources[0]
    s1 = tuple(int(i) for i in np.flatnonzero(labels == root_label))
    s2 = tuple(int(i) for i in np.flatnonzero(labels != root_label))
    return RootPartition(s1, s2)


def has_spanning_tree(g: WeightedDigraph) -> bool:
    return root_partition(g) is not None


def is_strongly_connected(g: WeightedDigraph) -> bool:
    if g.n == 1:
        return True
    n_comp, _ = connected_components(_adjacency(g), directed=True, connection="strong")
    return n_comp == 1


def left_null_vector(block: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Positive left null vector xi of an irreducible Laplacian block.

    Solves the bordered system [block^T; 1^T] xi = [0; 1] by least squares,
    so xi^T block = 0 and sum(xi) = 1. Rejects reducible input.
    """
    block = np.asarray(block, dtype=float)
    m = block.shape[0]
    if block.shape != (m, m):
        raise ValueError("block must be square")
    if m == 1:
        if abs(block[0, 0]) > tol:
            raise ValueError("1x1 Laplacian block must be zero")
        return np.ones(1)
    if not is_strongly_connected(WeightedDigraph.from_laplacian(block)):
        raise ValueError("Laplacian block is reducible; left null vector is not unique")
    a = np.vstack([block.T, np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    xi, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.abs(block.T @ xi).max()
    if residual > tol:
        raise ValueError(f"left null vector residual {residual:.2e} exceeds {tol:.0e}")
    if xi.min() <= 0:
        raise ValueError("left null vector is not strictly positive")
    return xi


def root_weights(g: WeightedDigraph) -> tuple[RootPartition, np.ndarray]:
    """Root partition plus the normalized positive left null vector of the root block."""
    part = root_partition(g)
    if part is None:
        raise NoSpanningTreeError("graph has no spanning tree")
    xi = left_null_vector(part.root_block(laplacian(g)))
    return part, xi


def wra(x: np.ndarray, g: WeightedDigraph) -> float:
    """Weighted root average: sum of xi_i * x_i over the root set."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"state must have length {g.n}")
    part, xi = root_weights(g)
    return float(xi @ x[list(part.s1)])


_ETA_BLOCK_ELEMENTS = 128**3  # one block up to n = 128 (16 MB of float64)


def scrambling_coefficient(m: np.ndarray) -> float:
    """Scrambling coefficient of a Metzler matrix.

    For each unordered vertex pair (i, j) the coupling margin is
    ``m_ij + m_ji + sum_k min(m_ik, m_jk)`` over k != i, j; the coefficient
    is the minimum margin over all pairs. The matrix is scrambling iff the
    coefficient is positive: every pair is either directly linked or shares
    an in-neighbor. Diagonal entries are ignored.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if n < 2:
        raise ValueError("scrambling coefficient needs at least two vertices")
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    if (off < 0).any():
        raise ValueError("matrix is not Metzler: negative off-diagonal entry")
    # With the diagonal zeroed, the k = i, j terms contribute min(0, .) = 0,
    # so the full k-sum equals the k != i, j sum. Rows go in blocks so the
    # rows x n x n temporary stays within _ETA_BLOCK_ELEMENTS.
    shared = np.empty((n, n))
    rows = max(1, _ETA_BLOCK_ELEMENTS // (n * n))
    for r in range(0, n, rows):
        shared[r:r + rows] = np.minimum(off[r:r + rows, None, :], off[None, :, :]).sum(axis=2)
    margins = off + off.T + shared
    iu = np.triu_indices(n, k=1)
    return float(margins[iu].min())


def delta_graph(g: WeightedDigraph, delta: float) -> WeightedDigraph:
    """Subgraph keeping only edges of weight >= delta (weights preserved)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    w = np.where(g.weights >= delta, g.weights, 0.0)
    return WeightedDigraph(g.n, w)


def is_delta_scrambling(g: WeightedDigraph, delta: float) -> bool:
    """Whether the delta-graph is scrambling; implies eta-hat(-L(g)) >= delta."""
    return scrambling_coefficient(delta_graph(g, delta).weights) > 0


def read_edge_list(path: str | Path) -> WeightedDigraph:
    """Parse the edge-list format: header ``n <count>``, lines ``src dst weight``.

    Lines starting with ``#`` are comments. Vertex indices are 0-based.
    """
    n: int | None = None
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected header 'n <count>', got {line!r}")
            n = int(parts[1])
            if n <= 0:
                raise ValueError(f"{path}:{lineno}: vertex count must be positive")
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'src dst weight', got {line!r}")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if n is None:
        raise ValueError(f"{path}: missing 'n <count>' header")
    return WeightedDigraph.from_edges(n, edges)


def write_edge_list(g: WeightedDigraph, path: str | Path) -> None:
    lines = [f"n {g.n}"]
    lines += [f"{src} {dst} {weight!r}" for src, dst, weight in g.edges()]
    Path(path).write_text("\n".join(lines) + "\n")

"""Reference computations the benchmark checks the program against.

Nothing here calls consensus-lab: root sets come from plain BFS, the
scrambling coefficient from a triple loop, the weighted root average from an
SVD null space, and the expected scrambling coefficient of a small blinking
model from exhaustive enumeration. Graphs are weight matrices ``w`` with
``w[i, j] > 0`` iff there is an edge ``j -> i`` (vertex i hears j).
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np


def read_edges(path: Path) -> np.ndarray:
    """Weight matrix of an edge-list file (``n <count>``, then ``src dst weight``)."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    n = int(lines[0][1])
    w = np.zeros((n, n))
    for src, dst, weight in lines[1:]:
        w[int(dst), int(src)] = float(weight)
    return w


def reach(w: np.ndarray, start: int) -> set[int]:
    """Vertices reachable from ``start`` along edges, by BFS."""
    seen, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for u in np.flatnonzero(w[:, v]):
            if int(u) not in seen:
                seen.add(int(u))
                frontier.append(int(u))
    return seen


def root_set(w: np.ndarray) -> list[int]:
    """Vertices that reach every vertex; empty iff there is no spanning tree."""
    n = len(w)
    return [v for v in range(n) if len(reach(w, v)) == n]


def source_components(w: np.ndarray) -> list[list[int]]:
    """Strongly connected components that no outside vertex reaches, by smallest member."""
    n = len(w)
    reached = [reach(w, v) for v in range(n)]
    out: list[list[int]] = []
    for v in range(n):
        comp = [u for u in range(n) if u in reached[v] and v in reached[u]]
        if comp[0] != v:
            continue
        if all(u in comp for u in range(n) if v in reached[u]):
            out.append(comp)
    return out


def eta(m: np.ndarray) -> float:
    """Scrambling coefficient: min over pairs of m_ij + m_ji + sum_k min(m_ik, m_jk)."""
    n = len(m)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            term = m[i, j] + m[j, i]
            for k in range(n):
                if k != i and k != j:
                    term += min(m[i, k], m[j, k])
            best = min(best, term)
    return float(best)


def wra(w: np.ndarray, x0: np.ndarray) -> float:
    """Weighted root average: left null vector of the root block, summing to 1, dotted with x0."""
    roots = root_set(w)
    if not roots:
        raise ValueError("no spanning tree")
    lap = np.diag(w.sum(axis=1)) - w
    block = lap[np.ix_(roots, roots)]
    xi = np.linalg.svd(block.T)[2][-1]  # right singular vector of the zero singular value
    xi = xi / xi.sum()
    return float(xi @ np.asarray(x0)[roots])


def blinking_exact_eta(n: int, p: float, w: float) -> float:
    """E[eta] of the blinking model without backbone, summed over all 2**(n(n-1)) link sets."""
    links = [(a, b) for a in range(n) for b in range(n) if a != b]
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(links)):
        m = np.zeros((n, n))
        for (a, b), on in zip(links, bits):
            if on:
                m[b, a] = w
        k = sum(bits)
        total += p**k * (1 - p) ** (len(links) - k) * eta(m)
    return total


def blinking_eta_ceiling(n: int, p: float, w: float) -> float:
    """Upper bound n w (1-q)^floor(n/2) on E[eta]; q = P(a given pair is uncovered).

    A pair is uncovered when neither hears the other and no third vertex
    feeds both; the pairs (0,1), (2,3), ... use disjoint in-links, so their
    coverage events are independent, and eta <= n w on every graph.
    """
    q = (1 - p) ** 2 * (1 - p * p) ** (n - 2)
    return n * w * (1 - q) ** (n // 2)

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import (
    NoSpanningTreeError,
    WeightedDigraph,
    has_spanning_tree,
    is_delta_scrambling,
    is_strongly_connected,
    laplacian,
    left_null_vector,
    read_edge_list,
    root_partition,
    scrambling_coefficient,
    wra,
    write_edge_list,
)
from consensus_lab.graph import _covers_every_pair, delta_graph
from helpers import (
    brute_force_root_set,
    eta_dense,
    eta_oracle,
    random_digraph,
    random_metzler,
    random_strongly_connected,
)

FIG1_L = np.array([
    [1, -1, 0, 0],
    [-1, 1, 0, 0],
    [-1, 0, 1, 0],
    [-1, -1, 0, 2],
], dtype=float)


def test_laplacian_fig1_exact(fig1):
    np.testing.assert_array_equal(laplacian(fig1), FIG1_L)


def test_laplacian_empty_graph():
    g = WeightedDigraph(3, np.zeros((3, 3)))
    np.testing.assert_array_equal(laplacian(g), np.zeros((3, 3)))


def test_laplacian_row_sums_and_signs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_digraph(rng, int(rng.integers(2, 8)), 0.4, weight=float(rng.uniform(0.1, 3)))
        lap = laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12
        off = lap - np.diag(np.diag(lap))
        assert (off <= 0).all()
        assert (np.diag(lap) >= 0).all()


def test_rejects_negative_weight():
    w = np.zeros((2, 2))
    w[0, 1] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedDigraph(2, w)


def test_rejects_self_loop():
    w = np.eye(3)
    with pytest.raises(ValueError, match="diagonal"):
        WeightedDigraph(3, w)


def test_root_partition_fig1(fig1):
    part = root_partition(fig1)
    assert part.s1 == (0, 1)
    assert part.s2 == (2, 3)


def test_root_partition_complete_k3():
    w = np.ones((3, 3)) - np.eye(3)
    part = root_partition(WeightedDigraph(3, w))
    assert part.s1 == (0, 1, 2)
    assert part.s2 == ()


def test_root_partition_fig4_no_tree(fig4):
    assert root_partition(fig4) is None
    assert not has_spanning_tree(fig4)


def test_root_partition_block_form(fig1):
    rng = np.random.default_rng(1)
    graphs = [fig1] + [random_digraph(rng, 6, 0.3) for _ in range(20)]
    for g in graphs:
        part = root_partition(g)
        if part is None or not part.s2:
            continue
        permuted = part.permuted(laplacian(g))
        n1 = len(part.s1)
        assert np.all(permuted[:n1, n1:] == 0)


def _all_digraphs(n):
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(2 ** len(slots)):
        w = np.zeros((n, n))
        for b, (i, j) in enumerate(slots):
            if bits >> b & 1:
                w[i, j] = 1.0
        yield WeightedDigraph(n, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_partition_matches_bruteforce_exhaustive(n):
    for g in _all_digraphs(n):
        expected = brute_force_root_set(g)
        part = root_partition(g)
        if not expected:
            assert part is None
        else:
            assert part is not None
            assert set(part.s1) == expected
        assert is_strongly_connected(g) == (expected == set(range(n)))


def test_root_partition_matches_bruteforce_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        g = random_digraph(rng, n, float(rng.uniform(0.1, 0.6)))
        expected = brute_force_root_set(g)
        part = root_partition(g)
        assert (part is not None) == bool(expected)
        if part is not None:
            assert set(part.s1) == expected
            # strongly connected exactly when every vertex is a root
            assert (len(part.s1) == n) == (expected == set(range(n)))
        assert is_strongly_connected(g) == (expected == set(range(n)))


@pytest.mark.parametrize("shape", ["path", "cycle"])
@pytest.mark.parametrize("n", [2, 3, 64, 300])
def test_root_partition_path_and_cycle(shape, n):
    # a path 0 -> 1 -> ... -> n-1 has the longest reach, so it takes the most squarings
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    if shape == "cycle":
        edges.append((n - 1, 0, 1.0))
    g = WeightedDigraph.from_edges(n, edges)
    part = root_partition(g)
    roots = (0,) if shape == "path" else tuple(range(n))
    assert part.s1 == roots
    assert part.s2 == tuple(v for v in range(n) if v not in roots)
    assert is_strongly_connected(g) == (shape == "cycle")


def test_left_null_vector_fig1_block(fig1):
    part = root_partition(fig1)
    xi = left_null_vector(part.root_block(laplacian(fig1)))
    np.testing.assert_allclose(xi, [0.5, 0.5], atol=1e-12)


def test_left_null_vector_single_root():
    assert left_null_vector(np.array([[0.0]])) == pytest.approx([1.0])


def test_left_null_vector_three_cycle():
    g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    lap = laplacian(g)
    xi = left_null_vector(lap)
    np.testing.assert_allclose(xi, [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(xi @ lap, 0.0, atol=1e-12)


def test_left_null_vector_rejects_reducible():
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="reducible"):
        left_null_vector(lap)


def test_left_null_vector_residual_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_strongly_connected(rng, int(rng.integers(2, 9)))
        lap = laplacian(g)
        xi = left_null_vector(lap)
        assert np.abs(xi @ lap).max() <= 1e-10
        assert xi.min() > 0
        assert xi.sum() == pytest.approx(1.0, abs=1e-12)


def _weighted_ring_graph(rng, scale):
    """A strongly connected graph on 3-7 vertices: weights uniform(0.5, 3) times ``scale`` on
    about half the pairs, plus the ring i -> i+1 of weight ``scale`` where that pair has none."""
    n = int(rng.integers(3, 8))
    w = rng.uniform(0.5, 3.0, (n, n)) * scale * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    ring = (np.arange(1, n + 1) % n, np.arange(n))
    w[ring] = np.where(w[ring] == 0, scale, w[ring])
    return WeightedDigraph(n, w)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6, 1e8])
def test_wra_accepts_every_weight_scale(scale):
    # the residual is judged relative to max|L|: at 1e6 its median over these graphs is 4e-10
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = _weighted_ring_graph(rng, scale)
        x0 = rng.uniform(-1.0, 1.0, g.n)
        unscaled = WeightedDigraph(g.n, g.weights / scale)
        assert wra(x0, g) == pytest.approx(wra(x0, unscaled), rel=1e-9, abs=1e-12)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**30), st.integers(-6, 8))
def test_wra_is_invariant_under_weight_scaling(seed, k):
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(rng, int(rng.integers(2, 8)))
    x0 = rng.uniform(-1.0, 1.0, g.n)
    scaled = WeightedDigraph(g.n, 10.0**k * g.weights)
    assert wra(x0, scaled) == pytest.approx(wra(x0, g), rel=1e-9, abs=1e-12)


def test_wra_fig1(fig1):
    x = np.array([3.0, 5.0, -2.0, 11.0])
    assert wra(x, fig1) == pytest.approx((x[0] + x[1]) / 2, abs=1e-12)


def test_wra_consensus_state(fig1):
    assert wra(np.full(4, 2.5), fig1) == pytest.approx(2.5, abs=1e-12)


def test_wra_double_star(double_star):
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, 12)
    assert wra(x, double_star) == pytest.approx((x[0] + x[1]) / 2, abs=1e-12)


def test_wra_no_spanning_tree_raises(fig4):
    with pytest.raises(NoSpanningTreeError):
        wra(np.zeros(6), fig4)


def test_eta_fig1_scrambling(fig1):
    eta = scrambling_coefficient(-laplacian(fig1))
    assert eta == pytest.approx(1.0, abs=1e-12)
    assert eta == pytest.approx(eta_oracle(-laplacian(fig1)))
    assert eta > 0  # scrambling


def test_eta_disconnected_components_zero():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
    assert scrambling_coefficient(w) == 0.0


def test_eta_complete_graph():
    n, delta = 8, 0.25
    w = delta * (np.ones((n, n)) - np.eye(n))
    assert scrambling_coefficient(w) == pytest.approx(n * delta, rel=1e-12)


def test_eta_matches_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_metzler(rng, int(rng.integers(2, 9)))
        assert scrambling_coefficient(m) == pytest.approx(eta_oracle(m), abs=1e-12)
    m = random_metzler(rng, 150)  # more rows than one block holds
    eta = scrambling_coefficient(m)
    assert eta > 0  # scrambling, so the blocked dense sum ran
    assert eta == pytest.approx(eta_oracle(m), abs=1e-12)


def test_eta_memory_stays_quadratic():
    m = random_metzler(np.random.default_rng(11), 300)
    tracemalloc.start()
    try:
        eta = scrambling_coefficient(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eta > 0  # scrambling, so the blocked dense sum ran
    assert peak < 40e6, f"peak {peak / 1e6:.0f} MB; an n x n x n temporary takes over 200 MB"


def test_eta_matches_dense_formula_bitwise():
    # densities from sparse to full, so about half the matrices scramble and
    # the rest return 0.0 from the coverage test
    rng = np.random.default_rng(12)
    scrambling = 0
    for _ in range(2000):
        n = int(rng.integers(2, 41))
        m = random_metzler(rng, n, density=float(rng.uniform(0.05, 0.95)))
        eta = scrambling_coefficient(m)
        assert np.float64(eta).tobytes() == np.float64(eta_dense(m)).tobytes(), (n, eta)
        scrambling += eta > 0
    assert 600 < scrambling < 1400


def test_coverage_of_a_stack_matches_each_matrix():
    # random 0/1 patterns from sparse to dense, the first of each stack empty
    rng = np.random.default_rng(13)
    verdicts = []
    for n in range(2, 13):
        stack = (rng.random((24, n, n)) < rng.uniform(0.05, 0.9, (24, 1, 1))).astype(float)
        stack[:, range(n), range(n)] = 0.0
        stack[0] = 0.0
        got = _covers_every_pair(stack)
        assert got.shape == (24,) and not got[0]
        for m, verdict in zip(stack, got):
            assert verdict == _covers_every_pair(m) == (eta_oracle(m) > 0)
        verdicts += got.tolist()
    assert 50 < sum(verdicts) < len(verdicts) - 50


def test_eta_rejects_nan_and_takes_inf():
    m = np.zeros((3, 3))
    m[0, 1] = np.nan  # the only link of pair (0, 1): a coverage test alone reads it as no link
    with pytest.raises(ValueError, match="NaN"):
        scrambling_coefficient(m)
    m[0, 1] = np.inf
    assert scrambling_coefficient(m) == eta_dense(m) == 0.0  # pairs (0, 2) and (1, 2) are uncovered
    m[1, 2] = m[2, 0] = 1.0
    m[np.diag_indices(3)] = np.nan  # the diagonal is ignored
    assert scrambling_coefficient(m) == eta_dense(m) == 1.0


def test_eta_diagonal_invariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = random_metzler(rng, n)
        shifted = m + np.diag(rng.normal(scale=10, size=n))
        assert scrambling_coefficient(m) == pytest.approx(scrambling_coefficient(shifted), abs=1e-12)


def test_eta_rejects_negative_offdiagonal():
    m = np.zeros((3, 3))
    m[0, 1] = -0.5
    with pytest.raises(ValueError, match="Metzler"):
        scrambling_coefficient(m)


def test_delta_scrambling_fig1(fig1):
    assert is_delta_scrambling(fig1, 1.0)
    assert not is_delta_scrambling(fig1, 1.5)


def test_delta_scrambling_complete_50():
    n = 50
    w = 0.1 * (np.ones((n, n)) - np.eye(n))
    g = WeightedDigraph(n, w)
    assert is_delta_scrambling(g, 0.1)
    assert scrambling_coefficient(w) == pytest.approx(5.0, rel=1e-12)


def test_delta_scrambling_implies_eta_bound():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        g = random_digraph(rng, n, 0.5, weight=1.0)
        g = WeightedDigraph(n, g.weights * rng.uniform(0.05, 2.0, size=(n, n)))
        delta = float(rng.uniform(0.05, 1.5))
        if is_delta_scrambling(g, delta):
            assert scrambling_coefficient(-laplacian(g)) >= delta - 1e-12


def test_delta_scrambling_is_positive_eta_of_the_delta_graph():
    rng = np.random.default_rng(9)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(2, 12))
        g = random_digraph(rng, n, float(rng.uniform(0.2, 0.9)))
        g = WeightedDigraph(n, g.weights * rng.uniform(0.05, 2.0, size=(n, n)))
        delta = float(rng.uniform(0.05, 1.5))
        kept = delta_graph(g, delta).weights
        verdict = is_delta_scrambling(g, delta)
        assert verdict == (scrambling_coefficient(kept) > 0) == (eta_dense(kept) > 0)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 250


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_delta_graph_rejects_a_nonpositive_delta(fig1, delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        is_delta_scrambling(fig1, delta)


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(0, 2**30))
def test_eta_of_laplacian_equals_eta_of_weights(n, seed):
    g = random_digraph(np.random.default_rng(seed), n, 0.5)
    assert scrambling_coefficient(-laplacian(g)) == pytest.approx(
        scrambling_coefficient(g.weights), abs=1e-12
    )


def test_edge_list_roundtrip(tmp_path, fig1):
    path = tmp_path / "g.edges"
    write_edge_list(fig1, path)
    g2 = read_edge_list(path)
    np.testing.assert_array_equal(fig1.weights, g2.weights)


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\nn 2\n0 1 0.25\n")
    g = read_edge_list(path)
    assert g.weights[1, 0] == 0.25
    path.write_text("0 1 0.25\n")
    with pytest.raises(ValueError, match="header"):
        read_edge_list(path)
    path.write_text("n 2\n0 1\n")
    with pytest.raises(ValueError, match="src dst weight"):
        read_edge_list(path)


@pytest.mark.parametrize("weights", [(1.0, 5.0), (1.0, 1.0), (0.0, 2.0)])
def test_repeated_edge_rejected(tmp_path, weights):
    # a repeated (src, dst) pair is refused whatever its weights, not overwritten by the last
    edges = [(0, 1, weights[0]), (1, 2, 1.0), (0, 1, weights[1])]
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is repeated"):
        WeightedDigraph.from_edges(3, edges)
    path = tmp_path / "g.edges"
    path.write_text("n 3\n" + "".join(f"{s} {d} {w!r}\n" for s, d, w in edges))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is repeated"):
        read_edge_list(path)
    # the reverse pair is another edge
    assert WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 5.0)]).edges() == [(0, 1, 1.0), (1, 0, 5.0)]

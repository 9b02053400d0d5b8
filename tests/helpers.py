"""Shared brute-force oracles and invariant checkers for the test suite.

The oracles deliberately avoid the library's computation paths: root sets
come from per-vertex BFS reachability, the scrambling coefficient from a
direct triple loop (and, for bit-for-bit checks, the dense formula without
the coverage screen), and integrals from quadrature over hand-coded branches.
"""

import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from consensus_lab import State, WeightedDigraph, laplacian, scrambling_coefficient, step, wra


def brute_force_root_set(g: WeightedDigraph) -> set[int]:
    """Vertices that reach every other vertex, via plain BFS."""
    succ = [set(np.flatnonzero(g.weights[:, v])) for v in range(g.n)]
    roots = set()
    for start in range(g.n):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in succ[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) == g.n:
            roots.add(start)
    return roots


def eta_oracle(m: np.ndarray) -> float:
    """Triple-loop enumeration of the pairwise coupling margins."""
    n = m.shape[0]
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            term = m[i, j] + m[j, i]
            for k in range(n):
                if k != i and k != j:
                    term += min(m[i, k], m[j, k])
            best = min(best, term)
    return float(best)


def eta_dense(m: np.ndarray) -> float:
    """The scrambling coefficient by the dense formula with no coverage screen.

    The library's formula before it skipped matrices with an uncovered pair:
    ``min(m_ik, m_jk)`` summed over all k in one n x n x n temporary, so keep
    n to a few dozen. Its result is compared bit for bit.
    """
    off = np.asarray(m, dtype=float).copy()
    np.fill_diagonal(off, 0.0)
    shared = np.minimum(off[:, None, :], off[None, :, :]).sum(axis=2)
    margins = off + off.T + shared
    return float(margins[np.triu_indices(len(off), k=1)].min())


def blinking_exact(model, max_free_links=14) -> tuple[float, float]:
    """Exact (P(scrambling), E[eta]) of a small blinking model by enumeration.

    Sums over all 2**f on/off configurations of the f non-backbone links,
    each weighted by its probability, with eta from ``eta_oracle``. The ring
    backbone is rebuilt here from its definition rather than taken from the
    model.
    """
    n, K, p, w = model.n, model.K, model.p, model.w
    ring = {(i, (i + d) % n) for i in range(n) for k in range(1, K + 1) for d in (k, -k)}
    free = [(a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in ring]
    assert len(free) <= max_free_links, f"{len(free)} free links is too many to enumerate"
    p_scr = e_eta = 0.0
    for bits in itertools.product((False, True), repeat=len(free)):
        on = list(ring) + [link for link, b in zip(free, bits) if b]
        m = np.zeros((n, n))
        for a, b in on:
            m[b, a] = w  # edge a -> b: b hears a
        prob = p ** sum(bits) * (1.0 - p) ** (len(free) - sum(bits))
        eta = eta_oracle(m)
        p_scr += prob * (eta > 0)
        e_eta += prob * eta
    return p_scr, e_eta


def eta_one_at_a_time(draw, n_samples, rng_seed) -> tuple[np.ndarray, float, float]:
    """Expected-eta samples drawn and scored one graph at a time, with no stacks.

    ``draw(rng)`` returns one graph. Returns every sample's
    ``scrambling_coefficient(-laplacian(graph))``, then their mean and its
    standard error.
    """
    rng = np.random.default_rng(rng_seed)
    vals = np.array([scrambling_coefficient(-laplacian(draw(rng))) for _ in range(n_samples)])
    return vals, float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(n_samples)


def blinking_weights_one_draw(model, rng) -> np.ndarray:
    """One blinking graph's weights from one ``rng.random((n, n))`` draw, by the model's definition.

    Link i -> j is on when it is a ring link (``|i - j| <= K`` around the
    ring) or its uniform draw ``u[i, j]`` is below ``p``; it is stored at
    ``W[j, i]``.
    """
    n = model.n
    u = rng.random((n, n))
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ring = (np.minimum(gap, n - gap) <= model.K) & (gap > 0)
    on = ((u < model.p) | ring) & ~np.eye(n, dtype=bool)
    return model.w * on.T.astype(float)


def random_digraph(rng, n, p, weight=1.0) -> WeightedDigraph:
    w = weight * (rng.random((n, n)) < p)
    np.fill_diagonal(w, 0.0)
    return WeightedDigraph(n, w.astype(float))


def random_strongly_connected(rng, n, extra_p=0.3, weight_range=(0.5, 1.5)) -> WeightedDigraph:
    """A random permutation cycle (guaranteeing strong connectivity) plus extras."""
    perm = rng.permutation(n)
    w = np.zeros((n, n))
    for a, b in zip(perm, np.roll(perm, -1)):
        w[b, a] = rng.uniform(*weight_range)
    extra = rng.random((n, n)) < extra_p
    np.fill_diagonal(extra, False)
    w = np.where(extra & (w == 0), rng.uniform(*weight_range, size=(n, n)), w)
    return WeightedDigraph(n, w)


def random_metzler(rng, n, density=0.5, scale=2.0) -> np.ndarray:
    m = scale * rng.random((n, n)) * (rng.random((n, n)) < density)
    m[np.diag_indices(n)] = rng.normal(size=n)  # diagonal sign must not matter
    return m


def source_components(g: WeightedDigraph) -> list[list[int]]:
    """Strongly connected components with no incoming edges, via scipy labels."""
    adj = csr_matrix((g.weights > 0).T)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    has_in = np.zeros(n_comp, dtype=bool)
    dst, src = np.nonzero(g.weights)
    cross = labels[src] != labels[dst]
    has_in[labels[dst[cross]]] = True
    return [list(np.flatnonzero(labels == c)) for c in np.flatnonzero(~has_in)]


def adversarial_x0(g: WeightedDigraph, a=1.0, c=-1.0, filler=0.3) -> np.ndarray:
    """Initial condition freezing two source groups at different values.

    Valid for graphs without a spanning tree: two source components exist,
    each hears only itself, so its members keep their common value forever
    and the disagreement can never drop below |a - c|.
    """
    sources = source_components(g)
    assert len(sources) >= 2, "graph has a spanning tree; no adversarial x0 exists"
    x0 = np.full(g.n, filler)
    x0[sources[0]] = a
    x0[sources[1]] = c
    return x0


def check_shrinking(traj, lap_inf_norm, slack_scale=2.0):
    """Max component nonincreasing / min nondecreasing within integrator slack."""
    dt = traj.meta["dt"]
    stride = traj.meta.get("record_stride", 1)
    sup_gamma = float(np.abs(traj.gamma).max())
    slack = slack_scale * dt * lap_inf_norm * sup_gamma * stride
    vmax = traj.x.max(axis=1)
    vmin = traj.x.min(axis=1)
    assert (np.diff(vmax) <= slack + 1e-12).all(), "max component increased beyond slack"
    assert (np.diff(vmin) >= -slack - 1e-12).all(), "min component decreased beyond slack"


def check_wra_conservation(traj, graph, tol=1e-4):
    from consensus_lab import root_weights

    part, xi = root_weights(graph)
    values = traj.x[:, list(part.s1)] @ xi
    drift = float(np.abs(values - values[0]).max())
    assert drift <= tol, f"weighted root average drifted by {drift}"
    return drift


def check_selection_validity(traj, g, fudge=1e-9):
    """Every recorded selection lies in the band-widened admissible interval.

    Evaluating g just beyond the widened band edges yields the correct
    one-sided limits even when an edge falls exactly on a jump abscissa.
    """
    band = traj.meta["band"]
    tiny = 1e-12 * max(1.0, float(np.abs(traj.x).max()))
    lo = g.values(traj.x - band - tiny)
    hi = g.values(traj.x + band + tiny)
    ok = (lo - fudge <= traj.gamma) & (traj.gamma <= hi + fudge)
    assert ok.all(), f"{(~ok).sum()} selections outside their admissible interval"


def check_interval_decay(reports, dt, slack_factor=10.0):
    for r in reports:
        assert r.v_end <= r.bound_rhs + slack_factor * dt, (
            f"interval {r.k}: v_end={r.v_end} exceeds bound {r.bound_rhs} + slack"
        )


def euler_step(x, lap, g, dt, gamma=None, sliding=None):
    """One explicit Euler step of x' = -L g(x), with g evaluated off its jumps.

    A given selection ``gamma`` stands for g(x), and the components of the
    ``sliding`` mask keep their state: they are pinned on their jumps.
    """
    x_next = x - dt * (lap @ (g.values(x) if gamma is None else gamma))
    if sliding is not None:
        x_next[sliding] = x[sliding]
    return x_next


def stepwise_reference(segments, g, x0, opts, stop_at_consensus=True):
    """Every state of a run, taken with one public ``step`` call per step.

    An oracle for the integration loop, not for the step: it shares the
    library's stepping routine but none of the loop's bookkeeping.
    Follows the integrator's time grid and stopping rule: within a segment
    ``(lap, t_end)`` each step is capped at ``t_end - t``, t snaps to
    ``t_end`` once within 1e-12*max(1, t_max) of it, and a run that has
    reached the consensus tolerance takes no further step when asked to stop.
    Returns ``t, x, gamma, sliding`` arrays of the state before every step
    plus the final state, then the step and fallback counts.
    """
    tiny = 1e-12 * max(1.0, opts.t_max)
    t, x = 0.0, np.asarray(x0, dtype=float)
    ts, xs, gammas, slidings = [], [], [], []
    steps = fallbacks = 0
    reached = False

    def record(t, x, res):
        ts.append(t)
        xs.append(x)
        gammas.append(res.gamma)
        slidings.append(np.isin(np.arange(len(x)), res.sliding_set))

    for lap, t_end in segments:
        while True:
            if t >= t_end - tiny:
                t = t_end
            reached = reached or x.max() - x.min() < opts.consensus_tol
            if t == t_end or (stop_at_consensus and reached):
                break
            res = step(State(t, x), lap, g, opts, dt_limit=t_end - t)
            record(t, x, res)
            t, x = res.state.t, res.state.x
            steps += 1
            fallbacks += res.used_fallback
        if stop_at_consensus and reached:
            break
    record(t, x, step(State(t, x), lap, g, opts))  # only its selection is used
    return np.array(ts), np.array(xs), np.array(gammas), np.array(slidings), steps, fallbacks


def check_sliding_velocity(traj, segments, abscissas, rtol=1e-12):
    """Sliding components have zero Filippov velocity where their selection solved for it.

    At every sample whose banded components all slide, ``|(L @ gamma)[sliding]|
    <= rtol * ||L|| * ||gamma||`` (infinity norms), with the Laplacian of the
    sample's segment. Banded means within ``band`` of an abscissa, tested
    on the state as ``b - band <= x <= b + band``. Samples whose banded block
    is rank-deficient take the midpoint fallback, which zeroes nothing, and
    are skipped. Returns the number of samples checked.
    """
    band = traj.meta["band"]
    tiny = 1e-12 * max(1.0, traj.meta["t_max"])
    laps = [np.asarray(lap, dtype=float) for lap, _ in segments]
    ends = np.array([t_end for _, t_end in segments])
    which = np.minimum(np.searchsorted(ends - tiny, traj.t, side="right"), len(laps) - 1)
    b = np.asarray(abscissas, dtype=float)
    banded = ((traj.x[:, :, None] >= b - band) & (traj.x[:, :, None] <= b + band)).any(axis=2)
    checked = 0
    for i in np.flatnonzero(traj.sliding.any(axis=1)):
        sliding = traj.sliding[i]
        if not (sliding == banded[i]).all():
            continue  # a clamped banded component: the others' equations do not hold
        lap, gamma = laps[which[i]], traj.gamma[i]
        block = lap[np.ix_(sliding, sliding)]
        s = np.linalg.svd(block, compute_uv=False)
        if (s > np.finfo(float).eps * len(block) * s.max()).sum() < len(block):
            continue
        residual = np.abs(lap @ gamma)[sliding].max()
        bound = rtol * np.abs(lap).sum(axis=1).max() * np.abs(gamma).max()
        assert residual <= bound, f"sample {i}: sliding velocity {residual} > {bound}"
        checked += 1
    return checked

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from consensus_lab import (
    IntegrationError,
    SimOptions,
    State,
    WeightedDigraph,
    disagreement,
    finite_time_bound,
    laplacian,
    lyapunov_VL,
    simulate_fixed,
    step,
    unit_jump,
)
from consensus_lab import dynamics
from consensus_lab.bundled import double_star_graph, fig4_graph, write_bundled
from consensus_lab.cli import load_config, run as cli_run
from consensus_lab.protocol import AffinePiece, CallablePiece, ClassAFunction, identity
from consensus_lab.switching import (
    BlinkingModel,
    ConstantDuration,
    UniformDuration,
    process_for_blinking,
    process_for_graph,
    sample_schedule,
    simulate_switching,
)
from helpers import (
    adversarial_x0,
    check_selection_validity,
    check_shrinking,
    check_sliding_velocity,
    check_wra_conservation,
    euler_step,
    random_strongly_connected,
    stepwise_reference,
)

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def lap_norm(g):
    return float(np.abs(laplacian(g)).sum(axis=1).max())


def test_step_consensus_state_is_fixed(fig1, uj):
    x = np.full(4, 1.75)
    res = step(State(0.0, x), laplacian(fig1), uj, SimOptions())
    np.testing.assert_array_equal(res.state.x, x)
    assert res.sliding_set == ()


def test_step_two_node_velocities(uj):
    res = step(State(0.0, np.array([-1.0, 1.0])), L2, uj, SimOptions(dt=1e-3))
    v = (res.state.x - np.array([-1.0, 1.0])) / res.dt
    np.testing.assert_allclose(v, [3.0, -3.0], atol=1e-12)


def test_step_sliding_at_common_breakpoint(uj):
    res = step(State(0.0, np.array([0.0, 0.0])), L2, uj, SimOptions())
    assert res.sliding_set == (0, 1)
    np.testing.assert_array_equal(res.state.x, [0.0, 0.0])
    assert res.gamma[0] == res.gamma[1]
    assert 0.0 <= res.gamma[0] <= 1.0
    np.testing.assert_allclose(L2 @ res.gamma, 0.0, atol=1e-12)


def test_step_event_capping_lands_in_band(uj):
    # one agent below the jump, pulled up fast enough to overshoot the band
    lap = np.array([[1.0, -1.0], [0.0, 0.0]])
    res = step(State(0.0, np.array([-0.001, 5.0])), lap, uj, SimOptions(dt=0.5))
    assert res.dt < 0.5
    assert abs(res.state.x[0]) <= 1e-6  # landed inside the band, not across it


def test_step_overflow_raises(uj):
    res = State(0.0, np.array([1e300, -1e300]))
    with pytest.raises(IntegrationError):
        step(res, 1e10 * L2, uj, SimOptions(dt=1e3, t_max=1e9))


@pytest.mark.parametrize("cap", [0.0, -1e-3, float("nan")])
def test_step_rejects_a_cap_that_is_not_positive(uj, cap):
    with pytest.raises(ValueError, match="step size collapsed to zero"):
        step(State(0.0, np.array([-1.0, 1.0])), L2, uj, SimOptions(), dt_limit=cap)


def test_disagreement_examples():
    assert disagreement(np.array([1.0, 3.0, 5.0, 7.0])) == (7.0, 1.0, 6.0)
    assert disagreement(np.full(3, 2.0)) == (2.0, 2.0, 0.0)


def test_simulate_constant_x0(fig1, uj):
    run = simulate_fixed(fig1, uj, np.full(4, 0.7), SimOptions(t_max=5.0))
    assert run.summary.consensus_reached
    assert run.summary.time_to_tol == 0.0
    assert run.summary.consensus_value == pytest.approx(0.7)


def test_simulate_double_star_reaches_wra(double_star, uj):
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-5, 5, 12)
    run = simulate_fixed(double_star, uj, x0, SimOptions(dt=1e-3, t_max=100.0))
    assert run.summary.consensus_reached
    assert run.summary.consensus_value == pytest.approx((x0[0] + x0[1]) / 2, abs=1e-3)
    assert run.summary.wra_predicted == pytest.approx((x0[0] + x0[1]) / 2, abs=1e-12)
    assert (np.diff(run.trajectory.t) > 0).all()
    check_shrinking(run.trajectory, lap_norm(double_star))
    check_wra_conservation(run.trajectory, double_star)


def test_simulate_fig4_frozen_groups(fig4, uj):
    x0 = adversarial_x0(fig4, a=1.0, c=-1.0)
    np.testing.assert_array_equal(x0[:2], [1.0, 1.0])
    np.testing.assert_array_equal(x0[4:], [-1.0, -1.0])
    run = simulate_fixed(fig4, uj, x0, SimOptions(dt=1e-3, t_max=20.0))
    assert not run.summary.consensus_reached
    frozen = [0, 1, 4, 5]
    drift = np.abs(run.trajectory.x[:, frozen] - x0[frozen]).max()
    assert drift <= 1e-6
    assert run.trajectory.spread.min() >= 2.0 - 1e-3
    assert run.summary.wra_predicted is None


def test_selection_validity_along_trajectories(two_node, uj):
    run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-3, t_max=5.0))
    check_selection_validity(run.trajectory, uj)


def test_shrinking_two_node(two_node, uj):
    run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-3, t_max=5.0))
    check_shrinking(run.trajectory, lap_norm(two_node))


def test_lyapunov_zero_at_consensus(uj):
    assert lyapunov_VL(np.zeros(2), L2, uj, 0.0) == 0.0
    assert lyapunov_VL(np.full(2, 3.0), L2, uj, 3.0) == 0.0


def test_lyapunov_two_node_exact_value(uj):
    assert lyapunov_VL(np.array([-1.0, 1.0]), L2, uj, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_matches_quadrature_oracle(uj):
    def raw(s):  # Example branches written out by hand
        return s if s < 0 else s + 1.0

    rng = np.random.default_rng(8)
    gbar = 0.5  # midpoint of the jump interval at 0
    for _ in range(10):
        x = rng.uniform(-3, 3, 2)
        expected = sum(
            0.5 * quad(lambda s: raw(s) - gbar, 0.0, xi, points=[0.0])[0] for xi in x
        )
        assert lyapunov_VL(x, L2, uj, 0.0) == pytest.approx(expected, abs=1e-9)


def test_lyapunov_positive_off_consensus(uj):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-4, 4, 2)
        if np.allclose(x, 0.0):
            continue
        assert lyapunov_VL(x, L2, uj, 0.0) > 0


def test_lyapunov_rejects_reducible(uj):
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="reducible"):
        lyapunov_VL(np.array([1.0, 2.0, 3.0]), lap, uj, 0.0)


def test_finite_time_bound_two_node(two_node, uj):
    t_star = finite_time_bound(two_node, uj, np.array([-1.0, 1.0]))
    assert t_star == pytest.approx(2.0, abs=1e-9)
    run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-3, t_max=5.0))
    assert run.summary.consensus_reached
    assert run.summary.time_to_tol <= t_star


def test_finite_time_bound_zero_initial(two_node, uj):
    assert finite_time_bound(two_node, uj, np.zeros(2)) == pytest.approx(0.0, abs=1e-15)


def test_finite_time_bound_scaling(uj):
    from consensus_lab import wra

    rng = np.random.default_rng(10)
    g = random_strongly_connected(rng, 4)
    x0 = rng.uniform(-2, 2, 4)
    x0 = x0 - wra(x0, g)  # force the predicted value onto the jump
    base = finite_time_bound(g, uj, x0)
    for c in (0.5, 2.0, 4.0):
        scaled = WeightedDigraph(4, c * g.weights)
        assert finite_time_bound(scaled, uj, x0) == pytest.approx(base / c, rel=1e-9)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 7), st.sampled_from([0.25, 1.0, 3.0]),
       st.lists(st.integers(-100, 100), min_size=7, max_size=7), st.sampled_from([0, 1]),
       st.integers(1, 12))
def test_finite_time_bound_verdict_is_invariant_under_state_scaling(n, weight, ints, offset, j):
    # xi is uniform on an equal-weight cycle, so xi.x0 is sum(x0) / n: 0 exactly, on the jump,
    # for an offset of 0, and at least 1/n away from it otherwise, at every scale of x0
    g = WeightedDigraph.from_edges(n, [(i, (i + 1) % n, weight) for i in range(n)])
    x0 = np.array(ints[:n - 1] + [offset - sum(ints[:n - 1])], dtype=float)
    verdicts = [finite_time_bound(g, unit_jump(), scale * x0) is None for scale in (1.0, 10.0**j)]
    assert verdicts == [offset == 1] * 2


def test_finite_time_bound_of_a_large_state_on_the_jump(uj):
    # xi.x0 is 0 exactly, but it rounds to about 4e-9 at this scale
    g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    bound = finite_time_bound(g, uj, 1e8 * np.array([1.0, 2.0, -3.0]))
    assert bound is not None and 0 < bound < np.inf


def test_finite_time_bound_not_applicable(two_node, uj):
    assert finite_time_bound(two_node, uj, np.array([1.0, 2.0])) is None


def test_finite_time_bound_needs_strong_connectivity(fig1, uj):
    with pytest.raises(ValueError, match="strongly connected"):
        finite_time_bound(fig1, uj, np.zeros(4))


@pytest.mark.parametrize("size", [1, 3])
def test_finite_time_bound_rejects_bad_x0(two_node, uj, size):
    with pytest.raises(ValueError, match="state must have length 2"):
        finite_time_bound(two_node, uj, np.zeros(size))


def test_step_rejects_a_state_of_the_wrong_length(fig1, uj):
    with pytest.raises(ValueError, match="state must have length 4"):
        step(State(0.0, np.array([0.0, 1.0, 2.0])), laplacian(fig1), uj, SimOptions())


def test_simulate_fixed_rejects_x0_of_the_wrong_length(fig4, uj):
    with pytest.raises(ValueError, match="state must have length 6"):
        simulate_fixed(fig4, uj, np.array([0.0, 1.0, 2.0]), SimOptions())


def test_integrate_checks_every_segment_length(fig1, uj):
    # the second segment's Laplacian has 3 rows for the 4 entries of the state
    segments = [(laplacian(fig1), 0.01), (np.eye(3), 0.02)]
    with pytest.raises(ValueError, match="state must have length 3"):
        dynamics.integrate(segments, uj, np.array([-5.0, 5.0, 0.0, 1.0]), SimOptions(t_max=1.0))


def test_trajectory_csv_format(tmp_path, two_node, uj):
    run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-2, t_max=1.0),
                         record_stride=5)
    path = tmp_path / "traj.csv"
    run.trajectory.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,V"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, -1.0, 1.0, 2.0]
    # final sample is always present
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(run.trajectory.t[-1])


def _in_range_doubles(rng, size: int) -> np.ndarray:
    """Doubles of random sign and mantissa bits with binary exponents -13..52, all inside [1e-4, 1e16)."""
    bits = rng.integers(0, 1 << 52, size, dtype=np.uint64)
    bits |= rng.integers(1023 - 13, 1023 + 53, size, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


def test_trajectory_csv_matches_per_element_repr(tmp_path, two_node, uj):
    # the row formatter must print each float as repr(float(v)) does
    specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072e-308, 0.1 + 0.2,
                1 / 3, -123456789.12345678, 1e16, 2.0**-1074 * 3, 9007199254740993.0]
    rng = np.random.default_rng(8)
    wide = rng.normal(size=(7, 2)) * 10.0 ** rng.integers(-300, 300, (7, 2))  # 17-digit floats
    # the edges of the range written by orjson, each in a row that is otherwise in range
    edges = [e for v in (1e-4, 1e16) for e in (np.nextafter(v, 0), v, np.nextafter(v, np.inf))]
    edges += [np.finfo(float).max, np.nan, 0.0]
    edges = np.array(edges + [-e for e in edges])
    edge_rows = np.column_stack((np.full(len(edges), 0.5), edges, np.full(len(edges), 3.25)))
    # in-range rows, rows of random 64-bit patterns, and in-range rows with one random
    # pattern in a random column
    in_range = _in_range_doubles(rng, 30_000).reshape(-1, 3)
    any_bits = rng.integers(0, 1 << 64, 110_002, dtype=np.uint64).view(np.float64)
    mixed = _in_range_doubles(rng, 30_000).reshape(-1, 3)
    mixed[np.arange(len(mixed)), rng.integers(0, 3, len(mixed))] = any_bits[100_002:]
    x = np.concatenate([np.array(specials).reshape(-1, 2), wide])
    t = np.arange(len(x)) * 0.1
    trajs = [dynamics.Trajectory(t=t, x=x, gamma=x.copy(), sliding=np.zeros(x.shape, dtype=bool),
                                 spread=x.max(axis=1) - x.min(axis=1))]
    for rows in (edge_rows, in_range, any_bits[:100_002].reshape(-1, 3), mixed):
        trajs.append(dynamics.Trajectory(t=rows[:, 0].copy(), x=rows[:, 1:2].copy(), gamma=rows[:, 1:2].copy(),
                                         sliding=np.zeros((len(rows), 1), dtype=bool), spread=rows[:, 2].copy()))
    # the bundled widths, double-star's n = 12 and blinking-50's n = 50, in chunks of
    # _BLOCK_ELEMENTS // (n + 2) rows, and a width whose every chunk is one row
    for n in (12, 50, dynamics._BLOCK_ELEMENTS - 1):
        per = max(1, dynamics._BLOCK_ELEMENTS // (n + 2))
        size = 4 * per + 7 if per > 1 else 6
        x = _in_range_doubles(rng, size * n).reshape(size, n)
        spread = np.abs(_in_range_doubles(rng, size))
        tiny = 10.0 ** -rng.uniform(5, 9, size)  # below 1e-4, as double-star's V at its end
        middle = [1e-5, np.inf, -np.inf, np.nan]  # one x in the middle of a row
        x[[1, 2, 3, 4], n // 2] = middle
        if per > 1:
            chosen = np.r_[per - 4:per + 4, 2 * per:3 * per, size - 3:size]  # across a chunk end, a whole chunk
            spread[chosen] = tiny[chosen]
            x[[per + 1, 2 * per + 1], [0, n - 1]] = middle[:2]  # both kinds in one row
        else:
            spread[[0, 1]] = tiny[[0, 1]]
        trajs.append(dynamics.Trajectory(t=np.arange(size) * 1e-3, x=x, gamma=x, sliding=x > 0, spread=spread))
    for traj in trajs:
        traj.to_csv(tmp_path / "traj.csv")
        lines = [f"t,{','.join(f'x_{i}' for i in range(traj.n))},V"]
        lines += [",".join(map(repr, [float(traj.t[k]), *traj.x[k].tolist(), float(traj.spread[k])]))
                  for k in range(len(traj.t))]
        assert (tmp_path / "traj.csv").read_text() == "\n".join(lines) + "\n"
    # a record_stride run writes every k-th row of the stride-1 run and its last one
    files = {}
    for stride in (1, 3, 6):
        run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-2, t_max=1.0),
                             record_stride=stride)
        run.trajectory.to_csv(tmp_path / f"run{stride}.csv")
        files[stride] = (tmp_path / f"run{stride}.csv").read_text().splitlines()
    header, *body = files[1]
    for stride in (3, 6):
        assert (len(body) - 1) % stride and files[stride] == [header, *body[:-1:stride], body[-1]]


def test_simulate_rejects_bad_x0(two_node, uj):
    with pytest.raises(ValueError, match="length"):
        simulate_fixed(two_node, uj, np.zeros(3), SimOptions())
    with pytest.raises(ValueError, match="finite"):
        simulate_fixed(two_node, uj, np.array([np.nan, 0.0]), SimOptions())


def test_simulate_rejects_empty_state(uj):
    with pytest.raises(ValueError, match="x0"):
        simulate_fixed(WeightedDigraph(0, np.zeros((0, 0))), uj, np.zeros(0), SimOptions())



@pytest.mark.parametrize("stride", [0, -3, 2.7, True])
def test_simulate_rejects_bad_record_stride(two_node, uj, stride):
    with pytest.raises(ValueError, match="record_stride"):
        simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(t_max=0.01),
                       record_stride=stride)

def test_simoptions_validation():
    with pytest.raises(ValueError, match="dt"):
        SimOptions(dt=0)
    with pytest.raises(ValueError, match="t_max"):
        SimOptions(t_max=-1)


@pytest.mark.parametrize("name", ["dt", "band", "consensus_tol", "t_max"])
@pytest.mark.parametrize("value", [np.inf, np.nan, "fast", True, None])
def test_simoptions_rejects_non_finite(name, value):
    # a bool is an int to Python, but True is no step size
    message = "finite and positive" if isinstance(value, float) else "a real number"
    with pytest.raises(ValueError, match=f"{name} must be {message}"):
        SimOptions(**{name: value})


def _sloped_jump():
    # slopes 2 and 0.5 on either side of a unit jump at 0
    return ClassAFunction((AffinePiece(-np.inf, 0.0, 2.0, 0.0), AffinePiece(0.0, np.inf, 0.5, 1.0)))


@pytest.mark.parametrize("g", [unit_jump(), _sloped_jump()], ids=["unit-jump", "sloped-jump"])
def test_free_full_steps_are_euler_steps_to_rounding(g):
    """Free and pinned sliding full-length steps, single and in a stride-1 run, against ``euler_step``.

    A pinned sliding step starts with every banded component sliding on its
    abscissa. Those keep their bits; the others take ``euler_step`` on the
    recorded selection, which the sliding condition solves independently of the
    step's map. Both functions jump at 0.
    """
    rng = np.random.default_rng(41)
    opts = SimOptions(dt=1e-2, t_max=2.0)
    eps = np.finfo(float).eps
    steps = rows = pinned = 0

    def assert_euler(x, x_next, lap, gamma, sliding):
        bound = 8 * eps * (np.abs(x) + opts.dt * np.abs(lap).sum(axis=1).max() * np.abs(gamma).max())
        assert (np.abs(x_next - euler_step(x, lap, g, opts.dt, gamma, sliding)) <= bound).all()
        assert (x_next[sliding] == x[sliding]).all()
        return int(sliding.any())

    for n in range(2, 9):
        graph = random_strongly_connected(rng, n)
        lap = laplacian(graph)
        for _ in range(100):  # off the bands, at least 0.1 from the jump, or on the jump
            x = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 3.0, n)
            x[rng.random(n) < 0.3] = 0.0
            res = step(State(0.0, x), lap, g, opts)
            sliding = np.isin(np.arange(n), res.sliding_set)
            if res.dt == opts.dt and (sliding == (x == 0.0)).all():
                pinned += assert_euler(x, res.state.x, lap, res.gamma, sliding)
                steps += 1
        x0 = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 3.0, n)
        traj = simulate_fixed(graph, g, x0, opts, stop_at_consensus=False).trajectory
        edges = dynamics._Stepper(lap, g, opts).edges
        banded = (edges.searchsorted(traj.x[:-1], side="right") & 1).astype(bool)
        on_jump = ((traj.x[:-1] == 0.0) | ~banded).all(axis=1)
        full = traj.t[1:] == traj.t[:-1] + opts.dt
        for i in np.flatnonzero(full & on_jump & (banded == traj.sliding[:-1]).all(axis=1)):
            pinned += assert_euler(traj.x[i], traj.x[i + 1], lap, traj.gamma[i], traj.sliding[i])
            rows += 1
    assert steps > 100 and rows > 1000 and pinned > 100


def test_identity_coupling_is_plain_euler():
    # No breakpoint: every step is x <- x - dt L x. dt = 1/64 keeps every t exact.
    rng = np.random.default_rng(12)
    graph = random_strongly_connected(rng, 6)
    lap = laplacian(graph)
    x0 = rng.uniform(-3, 3, 6)
    opts = SimOptions(dt=1 / 64, t_max=2.0)
    run = simulate_fixed(graph, identity(), x0, opts, record_stride=1, stop_at_consensus=False)
    assert run.summary.steps == 128
    x = x0.copy()
    for k in range(129):
        assert run.trajectory.t[k] == k / 64
        np.testing.assert_array_equal(run.trajectory.x[k], x)
        x = x - opts.dt * (lap @ x)


def _two_jump_function():
    return ClassAFunction((AffinePiece(-np.inf, 0.0, 1.0, 0.0), AffinePiece(0.0, 1.0, 1.0, 1.0),
                           AffinePiece(1.0, np.inf, 1.0, 2.0)))


def _first_band_dt(x, v, abscissas, opts):
    """The nominal dt, or the earliest time a component reaches the first abscissa
    past its own band when the nominal step would carry it beyond that band."""
    dt = opts.dt
    for xi, vi in zip(x, v):
        ahead = [b for b in abscissas if (b > xi + opts.band if vi > 0 else b < xi - opts.band)]
        if vi == 0 or not ahead:
            continue
        b = min(ahead) if vi > 0 else max(ahead)
        end = xi + opts.dt * vi
        if (end > b + opts.band) if vi > 0 else (end < b - opts.band):
            dt = min(dt, (b - xi) / vi)
    return dt


def test_step_caps_at_first_band_with_two_jumps():
    """Random states of a two-jump function: dt against a per-component oracle."""
    g = _two_jump_function()
    abscissas = (0.0, 1.0)
    opts = SimOptions(dt=0.05, band=1e-3)
    rng = np.random.default_rng(13)
    capped = {False: 0, True: 0}
    for trial in range(400):
        n = int(rng.integers(2, 6))
        lap = laplacian(random_strongly_connected(rng, n, weight_range=(1.0, 4.0)))
        x = rng.uniform(-1.5, 2.5, n)
        banded = trial % 2 == 1
        if banded:
            x[rng.integers(n)] = rng.choice(abscissas)
        elif any(abs(xi - b) <= opts.band for xi in x for b in abscissas):
            continue
        res = step(State(0.0, x), lap, g, opts)
        if banded:  # velocities from the step's own selection
            v = -(lap @ res.gamma)
            v[list(res.sliding_set)] = 0.0
        else:
            v = -(lap @ np.array([xi + sum(xi > b for b in abscissas) for xi in x]))
            assert res.sliding_set == ()
        dt = _first_band_dt(x, v, abscissas, opts)
        assert res.dt == dt
        capped[banded] += dt < opts.dt
        for xi, yi in zip(x, res.state.x):
            for b in abscissas:
                if xi < b - opts.band:
                    assert yi <= b + opts.band
                elif xi > b + opts.band:
                    assert yi >= b - opts.band
    assert min(capped.values()) >= 20


def test_step_from_a_band_may_land_in_the_next():
    # Node 0 sits on the jump at 0 with its selection clamped at 1, so it moves
    # up at 4 and lands inside the band of the jump at 1: no cap applies.
    lap = np.array([[1.0, -1.0], [0.0, 0.0]])
    opts = SimOptions(dt=0.250125, band=1e-3)
    res = step(State(0.0, np.array([0.0, 3.0])), lap, _two_jump_function(), opts)
    assert res.sliding_set == ()
    assert res.dt == opts.dt
    assert res.state.x[0] == 4 * opts.dt



@pytest.mark.parametrize("b,side", [(0.0, -1), (0.0, 1), (1.0, -1), (1.0, 1)])
def test_selection_at_a_band_edge_lies_in_its_jump_interval(b, side):
    # Node 0 sits on an edge of the band [b - band, b + band] and follows node 1,
    # which pulls it up with g(1.5) = 3.5: its selection clamps to g(b+).
    g = _two_jump_function()
    opts = SimOptions(band=1e-6)
    x = np.array([b + side * opts.band, 1.5])
    res = step(State(0.0, x), np.array([[1.0, -1.0], [0.0, 0.0]]), g, opts)
    assert res.gamma[0] in g.eval_interval(b)

FIG4_X0 = np.array([1.0, 1.0, 0.5, -0.5, -1.0, -1.0])  # the bundled fig4-nonconsensus x0


def assert_matches_stepwise(run, segments, g, x0, opts, stride=1, stop_at_consensus=True):
    """The run's samples and counts, bit for bit against one ``step`` call per step."""
    t, x, gamma, sliding, steps, fallbacks = stepwise_reference(
        segments, g, x0, opts, stop_at_consensus)
    keep = list(range(0, steps, stride)) + [steps]
    traj = run.trajectory
    np.testing.assert_array_equal(traj.t, t[keep])
    np.testing.assert_array_equal(traj.x, x[keep])
    np.testing.assert_array_equal(traj.gamma, gamma[keep])
    np.testing.assert_array_equal(traj.sliding, sliding[keep])
    assert (run.summary.steps, run.summary.fallback_steps) == (steps, fallbacks)
    return t, x


@pytest.mark.parametrize("t_max, stride", [(5.0, 1), (5.0, 7), (5.0037, 1)])
def test_fixed_point_fast_forward_matches_stepwise(fig4, uj, t_max, stride):
    # 5.0037 is no multiple of dt: the short last step follows the replay
    opts = SimOptions(dt=1e-3, t_max=t_max)
    run = simulate_fixed(fig4, uj, FIG4_X0, opts, record_stride=stride)
    assert not run.summary.consensus_reached
    assert_matches_stepwise(run, [(laplacian(fig4), t_max)], uj, FIG4_X0, opts, stride)
    assert run.summary.fixed_point_steps > run.summary.steps // 2  # the fast-forward took most


def test_fast_forward_after_consensus_matches_stepwise(double_star, uj):
    # the sources start at +-1, so consensus is reached at the jump and held by
    # midpoint-fallback steps, which the replay counts too
    x0 = np.random.default_rng(7).uniform(-5, 5, 12)
    x0[:2] = 1.0, -1.0
    opts = SimOptions(dt=1e-3, t_max=5.0)
    run = simulate_fixed(double_star, uj, x0, opts, stop_at_consensus=False)
    assert run.summary.consensus_reached and run.summary.fallback_steps > 0
    assert_matches_stepwise(run, [(laplacian(double_star), 5.0)], uj, x0, opts,
                            stop_at_consensus=False)
    assert run.summary.fixed_point_steps > run.summary.steps // 2


def test_fast_forward_in_every_switching_segment_matches_stepwise(fig4, uj):
    proc = process_for_graph(fig4, ConstantDuration(0.25))
    opts = SimOptions(dt=1e-3, t_max=5.0)
    run = simulate_switching(proc, uj, FIG4_X0, opts, seed=3)
    schedule = sample_schedule(proc, opts.t_max, 3)
    assert run.summary.n_intervals == len(schedule) == 20
    assert_matches_stepwise(run, [(iv.lap, iv.t_end) for iv in schedule], uj, FIG4_X0, opts)
    assert run.summary.fixed_point_steps > run.summary.steps // 2
    # once fixed, each later segment takes one computed step and replays the rest
    assert run.summary.steps - run.summary.fixed_point_steps < 400


def _block_calls(monkeypatch):
    """A one-item list that counts the calls of the stepping routine from here on."""
    calls = [0]
    block = dynamics._Stepper.block

    def counting(self, *args):
        calls[0] += 1
        return block(self, *args)

    monkeypatch.setattr(dynamics._Stepper, "block", counting)
    return calls


def assert_every_step_counted(s, calls):
    """Each step of the summary fields ``s`` is replayed, the first of a block, or a later one."""
    assert s["fixed_point_steps"] + s["free_flight_steps"] + s["sliding_flight_steps"] + calls \
        == s["steps"]


def test_fixed_point_fast_forward_skips_the_stepper(fig4, uj, monkeypatch):
    calls = _block_calls(monkeypatch)
    run = simulate_fixed(fig4, uj, FIG4_X0, SimOptions(dt=1e-3, t_max=100.0), record_stride=10)
    assert run.summary.steps == 100_001  # summed dt falls just short of t_max: one short step
    # a block records its steps in one call, and the replay records its steps in chunks
    assert calls[0] <= 20
    assert_every_step_counted(vars(run.summary), calls[0])


def _scalar_replay(rec, t, t_end, dt, tiny, x, gamma, sliding):
    """The replay as one single-step block per full-length step; also tells whether it
    stopped before a short step, which is not replayed."""
    steps = 0
    while t < t_end - tiny and t_end - t >= dt:
        rec.add_block(np.array([t]), x[None], gamma[None], sliding)
        t += dt
        steps += 1
    return t, steps, t < t_end - tiny


@pytest.mark.parametrize("case", ["within-tiny", "multiple", "short", "chunks"])
def test_replay_matches_the_scalar_loop(case):
    rng = np.random.default_rng(["within-tiny", "multiple", "short", "chunks"].index(case))
    for _ in range(5 if case == "chunks" else 60):
        dt = float(rng.choice([1e-3, 1e-2, 0.25, rng.uniform(1e-4, 1.0)]))
        t = float(rng.choice([0.0, rng.uniform(0.0, 50.0)]))
        k = int(rng.integers(3 * dynamics._BLOCK_ELEMENTS + 1, 4 * dynamics._BLOCK_ELEMENTS)
                if case == "chunks" else rng.integers(1, 200))
        t_end = t + k * dt
        if case in ("short", "chunks"):
            t_end = t + (k + rng.uniform(0.01, 0.99)) * dt
        tiny = 1e-12 * max(1.0, t_end)
        if case == "within-tiny":
            t = t_end - float(rng.uniform(0.0, 1.0)) * tiny
        x, gamma = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        sliding = rng.uniform(size=3) < 0.5
        stride, offset = int(rng.integers(1, 10)), int(rng.integers(0, 20))
        rec, ref = dynamics._Recorder(stride), dynamics._Recorder(stride)
        rec._count = ref._count = offset
        t_new, steps = rec.replay(t, t_end, dt, tiny, x, gamma, sliding)
        t_ref, steps_ref, short = _scalar_replay(ref, t, t_end, dt, tiny, x, gamma, sliding)
        assert (t_new, steps, rec._count) == (t_ref, steps_ref, ref._count)
        for r in (rec, ref):  # a closing sample, as a run has, so that both build
            r.add(t_new, -x, -gamma, ~sliding)
        got, want = rec.build({}), ref.build({})
        for name in ("t", "x", "gamma", "sliding", "spread"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        # summed dt can fall short of k * dt, leaving the k-th step short
        assert {"within-tiny": steps == 0, "multiple": steps + short >= k, "short": short,
                "chunks": short and steps > 3 * dynamics._BLOCK_ELEMENTS}[case]


def test_fixed_point_replay_over_chunks_matches_stepwise(fig4, uj):
    opts = SimOptions(dt=1e-2, t_max=123.4567)
    run = simulate_fixed(fig4, uj, FIG4_X0, opts, record_stride=7)
    t, _ = assert_matches_stepwise(run, [(laplacian(fig4), opts.t_max)], uj, FIG4_X0, opts, 7)
    assert run.summary.fixed_point_steps > 3 * dynamics._BLOCK_ELEMENTS
    assert t[-1] - t[-2] < opts.dt  # the run ends in a short step, taken after the replay


def _continuity_function():
    # continuous at 0.5 (both sides give 1.5): x in (0, 0.5) and x > 0.5 share
    # band-edge index 2 but not their piece, so k // 2 names the wrong slope
    return ClassAFunction((AffinePiece(-np.inf, 0.0, 1.0, 0.0), AffinePiece(0.0, 0.5, 1.0, 1.0),
                           AffinePiece(0.5, np.inf, 2.0, 0.5)))


def _free_flight_case(name):
    rng = np.random.default_rng(21)
    tree = random_strongly_connected(rng, 6)
    if name == "double-star":
        return (double_star_graph(), unit_jump(), np.random.default_rng(7).uniform(-5, 5, 12),
                SimOptions(dt=1e-3, t_max=20.0))
    if name == "tree":
        return tree, unit_jump(), rng.uniform(-3, 3, 6), SimOptions(dt=2e-3, t_max=30.0, consensus_tol=1e-4)
    if name == "two-jump":  # bands wide enough that free steps land in them short of the jump
        return tree, _two_jump_function(), rng.uniform(-1.5, 2.5, 6), \
            SimOptions(dt=2e-3, t_max=30.0, band=1e-2)
    if name == "continuity-junction":
        return tree, _continuity_function(), rng.uniform(-1.0, 2.0, 6), SimOptions(dt=2e-3, t_max=30.0)
    if name == "tree-capped":  # node 0 follows the root 1 up to the jump: a capped step lands it on 0
        return WeightedDigraph.from_edges(2, [(1, 0, 1.0)]), unit_jump(), np.array([-1.0, 5e-4]), \
            SimOptions(dt=0.1, t_max=10.0, consensus_tol=1e-3)
    if name == "treeless":  # sources at +1 and -1: the followers settle on an exact fixed point in flight
        two_sources = WeightedDigraph.from_edges(5, [(0, 2, 1.0), (1, 2, 0.25), (2, 3, 1.0), (1, 3, 1.5),
                                                     (3, 4, 1.0), (0, 4, 2.0)])
        return two_sources, unit_jump(), np.array([1.0, -1.0, 0.3, 0.2, 0.7]), \
            SimOptions(dt=1e-2, t_max=30.0, consensus_tol=1e-4)
    # no jump: the middle nodes settle on an exact fixed point in free flight, with
    # g = x on the unit-slope path and g = 2x on the general affine one
    g = identity() if name == "fixed-point" else ClassAFunction((AffinePiece(-np.inf, np.inf, 2.0, 0.0),))
    return fig4_graph(), g, np.array([1.0, 1.0, 0.3, 0.2, 2.0, 2.0]), SimOptions(dt=1e-2, t_max=30.0)


def _block_times(monkeypatch, sliding=False):
    """The time grid of the steps after the first of every block that the following runs
    take with more than one step and no banded component, or with banded ones; and the
    end time of every block they take. The one-step blocks of ``step`` are not theirs."""
    blocks, ends = [], []
    block = dynamics._Stepper.block

    def spy(self, *args):
        times, states, gamma, mask, *rest = block(self, *args)
        if len(times) > 2 and mask.any() == sliding:
            blocks.append(times[1:].copy())
        if args[4] > args[2]:  # a ``step`` block has t_end = t
            ends.append(float(times[-1]))
        return times, states, gamma, mask, *rest

    monkeypatch.setattr(dynamics._Stepper, "block", spy)
    return blocks, ends


def _cut_reasons(t, x, ends, lap, g, opts, sliding=None):
    """Why blocks ended, read off the reference states at and after each block's end time.

    ``sliding``, the reference's sliding masks, tells a clipped selection too.
    """
    edges = dynamics._Stepper(lap, g, opts).edges
    reasons = set()
    for i in np.searchsorted(t, ends):
        if x[i].max() - x[i].min() < opts.consensus_tol:
            reasons.add("consensus")
        elif i == len(t) - 1:
            reasons.add("end")
        elif x[i + 1].tobytes() == x[i].tobytes() != x[i - 1].tobytes():
            reasons.add("fixed point")
        elif sliding is not None and \
                (sliding[i] != (edges.searchsorted(x[i], side="right") & 1).astype(bool)).any():
            reasons.add("clipped")
        elif (edges.searchsorted(x[i + 1], side="right") != edges.searchsorted(x[i], side="right")).any():
            reasons.add("band")
        elif (g._junctions.searchsorted(x[i + 1]) != g._junctions.searchsorted(x[i])).any():
            reasons.add("piece")
    return reasons


@pytest.mark.parametrize("name, stride, reasons", [
    ("double-star", 1, {"band", "consensus"}),
    ("double-star", 7, {"band", "consensus"}),
    ("tree", 1, {"consensus"}),
    ("tree", 7, {"consensus"}),
    ("two-jump", 1, {"band"}),
    ("continuity-junction", 1, {"piece"}),
    ("fixed-point", 1, {"fixed point"}),
    ("fixed-point-slope-2", 1, {"fixed point"}),
    ("tree", 3, {"consensus"}),
    ("tree-capped", 1, {"consensus"}),
    ("treeless", 1, {"fixed point"}),
])
def test_free_flight_matches_stepwise(monkeypatch, name, stride, reasons):
    graph, g, x0, opts = _free_flight_case(name)
    blocks, ends = _block_times(monkeypatch)
    run = simulate_fixed(graph, g, x0, opts, record_stride=stride)
    lap = laplacian(graph)
    t, x = assert_matches_stepwise(run, [(lap, opts.t_max)], g, x0, opts, stride)
    assert run.summary.free_flight_steps == sum(len(b) - 1 for b in blocks) > 0
    assert reasons <= _cut_reasons(t, x, ends, lap, g, opts)


def test_long_block_at_small_n_matches_stepwise(monkeypatch, uj):
    # at n = 3 a block runs up to 4096 // 3 = 1365 steps; the run reaches the
    # consensus tolerance in the middle of the first block of that length
    graph = WeightedDigraph.from_edges(3, [(2, 0, 1.5), (0, 1, 2.25), (1, 2, 1.2)])
    x0, opts = np.array([0.5, 2.0, 3.5]), SimOptions(dt=2e-3, t_max=60.0)
    tried, block = [], dynamics._Stepper.block

    def spy(self, *args):
        if args[4] > args[2]:  # not a ``step`` block of the reference
            tried.append(self._block_len)
        return block(self, *args)

    monkeypatch.setattr(dynamics._Stepper, "block", spy)
    blocks, ends = _block_times(monkeypatch)
    run = simulate_fixed(graph, uj, x0, opts)
    t, x = assert_matches_stepwise(run, [(laplacian(graph), opts.t_max)], uj, x0, opts)
    spread = x.max(axis=1) - x.min(axis=1)
    assert run.summary.time_to_tol == t[-1] == ends[-1] == blocks[-1][-1]
    assert spread[-2] >= opts.consensus_tol > spread[-1]
    assert tried[-1] == dynamics._BLOCK_ELEMENTS // 3 > len(blocks[-1]) > 1000


def test_free_flight_across_switching_segments_matches_stepwise(monkeypatch, uj):
    proc = process_for_blinking(BlinkingModel(n=6, K=1, p=0.3, w=1.0), ConstantDuration(0.25))
    x0 = np.random.default_rng(22).uniform(-3, 3, 6)
    opts = SimOptions(dt=2e-3, t_max=10.0, consensus_tol=1e-4)
    blocks, _ = _block_times(monkeypatch)
    run = simulate_switching(proc, uj, x0, opts, seed=5, record_stride=3)
    schedule = sample_schedule(proc, opts.t_max, 5)[:run.summary.n_intervals]
    assert run.summary.consensus_reached and len(schedule) > 10
    assert_matches_stepwise(run, [(iv.lap, iv.t_end) for iv in schedule], uj, x0, opts, stride=3)
    assert run.summary.free_flight_steps == sum(len(b) - 1 for b in blocks) > run.summary.steps // 2
    assert all(b[-1] <= iv.t_end for b in blocks for iv in schedule if iv.t_start <= b[0] < iv.t_end)


def test_callable_pieces_take_no_free_flight(two_node):
    g = ClassAFunction((CallablePiece(-np.inf, 0.0, lambda s: s, hi_limit=0.0),
                        CallablePiece(0.0, np.inf, lambda s: s + 1.0, lo_limit=1.0)))
    x0 = np.array([-1.0, 1.5])
    opts = SimOptions(dt=1e-2, t_max=0.6)
    run = simulate_fixed(two_node, g, x0, opts)
    assert run.summary.free_flight_steps == 0 and run.summary.steps > 50
    assert_matches_stepwise(run, [(laplacian(two_node), opts.t_max)], g, x0, opts)


def test_integrate_rejects_no_segments(uj):
    with pytest.raises(ValueError, match="no segments"):
        dynamics.integrate([], uj, np.zeros(2), SimOptions())


def test_to_csv_streams_its_rows(tmp_path):
    rows, n = 20_000, 12
    x = np.random.default_rng(5).standard_normal((rows, n))
    traj = dynamics.Trajectory(t=np.arange(rows) * 1e-3, x=x, gamma=x, sliding=x > 0,
                               spread=x.max(axis=1) - x.min(axis=1))
    tracemalloc.start()
    try:
        traj.to_csv(tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 < (tmp_path / "traj.csv").stat().st_size
    # one row per sample, each value the repr of its float
    header = "t," + ",".join(f"x_{i}" for i in range(n)) + ",V\n"
    body = "".join(",".join(map(repr, [traj.t[k].item(), *x[k].tolist(), traj.spread[k].item()])) + "\n"
                   for k in range(rows))
    assert (tmp_path / "traj.csv").read_text() == header + body


def test_free_flight_hands_overflow_to_the_stepper(monkeypatch):
    # node 0 follows the fixed node 1 with dt = 10: x_0 <- -9 x_0 until it overflows
    lap = np.array([[1.0, -1.0], [0.0, 0.0]])
    x0, opts = np.array([1.0, 0.0]), SimOptions(dt=10.0, t_max=1e5)
    blocks, _ = _block_times(monkeypatch)
    with pytest.raises(IntegrationError) as err:
        simulate_fixed(WeightedDigraph.from_laplacian(lap), identity(), x0, opts)
    with pytest.raises(IntegrationError) as ref:
        stepwise_reference([(lap, opts.t_max)], identity(), x0, opts)
    assert str(err.value) == str(ref.value)
    assert sum(len(b) - 1 for b in blocks) > 200


def test_spread_past_the_float_range(two_node):
    # x <- -19 x per step: the spread leaves the float range one step before a state does
    with pytest.raises(IntegrationError):
        simulate_fixed(two_node, identity(), np.array([-1.0, 1.0]), SimOptions(dt=10.0, t_max=1e5))
    # no edges: finite states whose spread is inf from the start
    run = simulate_fixed(WeightedDigraph(2, np.zeros((2, 2))), identity(), np.array([-1e308, 1e308]),
                         SimOptions(dt=0.5, t_max=2.0))
    assert run.summary.final_disagreement == np.inf and (run.trajectory.spread == np.inf).all()


def _selection_spy(monkeypatch):
    """Band-edge indices of every banded selection, and of every rebuild of its cached structure."""
    selections, rebuilds = [], []
    selection, banded_set = dynamics._Stepper.selection, dynamics._Stepper._banded_set

    def selection_spy(self, x, k):
        if (k & 1).any():
            selections.append(k.copy())
        return selection(self, x, k)

    def banded_set_spy(self, k):
        rebuilds.append(k.copy())
        return banded_set(self, k)

    monkeypatch.setattr(dynamics._Stepper, "selection", selection_spy)
    monkeypatch.setattr(dynamics._Stepper, "_banded_set", banded_set_spy)
    return selections, rebuilds


def test_selection_cache_matches_stepwise_through_fallbacks(monkeypatch, uj):
    # no ring backbone: a banded node without in-links makes its block rank-deficient
    proc = process_for_blinking(BlinkingModel(n=8, K=0, p=0.2, w=1.0), UniformDuration(0.0, 1.0))
    x0 = np.random.default_rng(3).uniform(-1, 1, 8)
    opts = SimOptions(dt=1e-2, t_max=5.0, consensus_tol=1e-3)
    _, rebuilds = _selection_spy(monkeypatch)
    run = simulate_switching(proc, uj, x0, opts, seed=3)
    n_rebuilds = len(rebuilds)  # before the reference adds its own
    s = run.summary
    assert s.fallback_steps - s.fixed_point_steps > 100  # midpoints taken by stepping, not by replay
    assert s.sliding_flight_steps > 100  # most of them after a block's first step, which skip ``selection``
    schedule = sample_schedule(proc, opts.t_max, 3)[:s.n_intervals]
    assert_matches_stepwise(run, [(iv.lap, iv.t_end) for iv in schedule], uj, x0, opts)
    # banded steps taken by stepping (a replayed fixed point builds nothing): each
    # has a sliding component here, since every fallback midpoint slides
    banded_steps = int(run.trajectory.sliding[:-1].any(axis=1).sum()) - s.fixed_point_steps
    assert n_rebuilds < banded_steps // 5


def test_selection_cache_tells_jumps_apart(monkeypatch):
    # node 0 follows the source node 1 at 3 from the band of the jump at 0 into the
    # band of the jump at 1: its banded set stays {0} while its jump changes
    lap = np.array([[1.0, -1.0], [0.0, 0.0]])
    g, x0 = _two_jump_function(), np.array([0.0, 3.0])
    opts = SimOptions(dt=0.250125, band=1e-3, t_max=5.0)
    selections, rebuilds = _selection_spy(monkeypatch)
    run = simulate_fixed(WeightedDigraph.from_laplacian(lap), g, x0, opts)
    assert [k.tolist() for k in selections] == [[1, 4], [3, 4]]
    assert [k.tolist() for k in rebuilds[:2]] == [[1, 4], [3, 4]]
    assert_matches_stepwise(run, [(lap, opts.t_max)], g, x0, opts)


def test_selection_cache_decides_rank_per_banded_set(uj):
    # Within a run a rank-deficient set stays pinned at its jumps, so every later
    # set holds it and is deficient too; called directly, a stepper must still
    # decide the rank of each set on its own, as a fresh one does.
    stepper = dynamics._Stepper(L2, uj, SimOptions())
    both, alone = np.array([0.0, 0.0]), np.array([0.0, 1.0])  # blocks L2 (singular) and [1]
    for x in (both, alone, both, alone):
        k = stepper.edges.searchsorted(x, side="right")
        got = stepper.selection(x, k)
        want = dynamics._Stepper(L2, uj, SimOptions()).selection(x, k)
        assert got[2] == want[2] == (x is both)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_stacked_selections_match_selection_bit_for_bit():
    # A sliding flight's later selections are one stacked product over gamma_f rows gathered
    # into the stepper's buffer; each row must round as ``selection``'s op @ gamma[f] on a
    # fresh gather does, at n = 50 for |b| = 1..12 (so |f| odd and even) and 1 to _max_len
    # rows. Every gathered row is, like a fresh gather, unit-stride and on a 16-byte boundary.
    n, rng = 50, np.random.default_rng(12)
    stepper = dynamics._Stepper(np.zeros((n, n)), unit_jump(), SimOptions())
    stepper._block_len = stepper._max_len  # the first block allocates the buffers at the longest length
    x = rng.uniform(1.0, 2.0, n)
    stepper.block(x, stepper.edges.searchsorted(x, side="right"), 0.0, 1e-3, 1.0, 0.0, None)
    out = stepper._gf
    assert len(out) == stepper._max_len and out.strides[1] == out.itemsize
    assert ((out.ctypes.data + out.strides[0] * np.arange(len(out))) % 16 == 0).all()
    w = rng.random((n, n))
    np.fill_diagonal(w, 0.0)
    lap = np.diag(w.sum(axis=1)) - w
    for size in range(1, 13):
        for rows in rng.integers(1, len(out) + 1, 12).tolist() + [1, len(out)]:
            b = np.sort(rng.choice(n, size, replace=False))
            f = np.setdiff1d(np.arange(n), b)
            op = -np.linalg.solve(lap[np.ix_(b, b)], lap[np.ix_(b, f)])
            gs = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
            got = dynamics._stacked_selections(op, gs, f, out)
            want = np.array([op @ gamma[f] for gamma in gs])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _follower_lap():
    # node 0 hears nodes 1 and 2, node 2 follows node 3, and nodes 1 and 3 are sources:
    # node 0 slides on a jump while the mean of g(x_1) and g(x_2) lies inside it
    return np.array([[2.0, -1.0, -1.0, 0.0], [0.0] * 4, [0.0, 0.0, 1.0, -1.0], [0.0] * 4])


def _sliding_flight_case(name):
    if name == "clipped":  # g(x_2) falls with x_2 towards -3, so the mean leaves [0, 1] at 0
        return _follower_lap(), unit_jump(), np.array([0.0, 0.5, -0.5, -3.0]), \
            SimOptions(dt=1e-3, t_max=2.0)
    if name == "jump-at-1":  # the mean of g = 4 and g(x_2) -> 1.8 stays inside [g(1-), g(1+)] = [2, 3]
        return _follower_lap(), _two_jump_function(), np.array([1.0, 2.0, 0.5, 0.8]), \
            SimOptions(dt=1e-3, t_max=2.0)
    # fig4's source pair {0, 1} sits on the jump at 1: its block is singular, so every
    # step takes the midpoints while nodes 2 and 3 move
    return laplacian(fig4_graph()), _two_jump_function(), FIG4_X0, SimOptions(dt=1e-3, t_max=3.0)


@pytest.mark.parametrize("name, reasons", [
    ("clipped", {"clipped"}),
    ("jump-at-1", {"end"}),
    ("midpoints", {"band"}),
])
def test_sliding_flight_matches_stepwise(monkeypatch, name, reasons):
    lap, g, x0, opts = _sliding_flight_case(name)
    blocks, ends = _block_times(monkeypatch, sliding=True)
    run = simulate_fixed(WeightedDigraph.from_laplacian(lap), g, x0, opts)
    t, x = assert_matches_stepwise(run, [(lap, opts.t_max)], g, x0, opts)
    s = run.summary
    assert s.sliding_flight_steps == sum(len(b) - 1 for b in blocks) > 500
    assert reasons <= _cut_reasons(t, x, ends, lap, g, opts, run.trajectory.sliding)
    if name == "midpoints":
        assert s.fallback_steps == s.steps  # midpoints in blocks count as fallbacks too
        assert check_sliding_velocity(run.trajectory, [(lap, opts.t_max)], g.breakpoint_xs) == 0
    else:
        assert s.fallback_steps == 0
        checked = check_sliding_velocity(run.trajectory, [(lap, opts.t_max)], g.breakpoint_xs)
        # every step of a sliding block, its first included, + the final sample
        assert checked == s.sliding_flight_steps + len(blocks) + (name == "jump-at-1")
    if name == "jump-at-1":
        assert run.trajectory.sliding[:, 0].all() and (x[:, 0] == 1.0).all()


@pytest.mark.parametrize("case", ["rounded-diagonal", "closed-class"])
def test_float_singular_banded_block_takes_the_midpoints(case):
    if case == "rounded-diagonal":
        # vertex 0 has an in-neighbour outside the banded set {0, 1}, so its exact block is
        # nonsingular; but L_00 = 1 + 1e-17 rounds to 1 and the float block [[1, -1], [-1, 1]]
        # is singular, so every step takes the midpoint fallback
        graph = WeightedDigraph.from_edges(3, [(1, 0, 1.0), (0, 1, 1.0), (2, 0, 1e-17)])
        assert laplacian(graph)[0, 0] == 1.0
        x0 = np.array([0.0, 0.0, 3.0])
    else:
        # the banded set {0, 1, 2, 3} is a closed class, so its block is singular; yet its
        # float row sums are 2.78e-17 on three rows, so a positive float row sum does not
        # make a row strictly dominant
        edges = [(i, j, 0.1) for i in range(4) for j in range(4) if i != j] + [(0, 4, 0.1)]
        graph = WeightedDigraph.from_edges(5, edges)
        assert (laplacian(graph)[:4, :4].sum(axis=1) > 0).sum() == 3
        x0 = np.array([0.0, 0.0, 0.0, 0.0, 2.0])
    run = simulate_fixed(graph, unit_jump(), x0, SimOptions(dt=1e-2, t_max=1.0))
    s = run.summary
    assert s.steps == s.fallback_steps == 100 and not s.consensus_reached
    assert np.isfinite(run.trajectory.x).all() and run.trajectory.t[-1] == 1.0
    if case == "closed-class":
        assert (run.trajectory.x[:, :4] == 0.0).all()


def test_an_unpinned_set_that_slides_flies_on_in_the_same_block(monkeypatch):
    # node 0 starts inside the band of the jump at 1 but off its abscissa: the
    # block's first step slides and pins it, and the block flies on from there
    lap, g, x0, opts = _sliding_flight_case("jump-at-1")
    x0 = x0 + np.array([3e-7, 0.0, 0.0, 0.0])
    blocks, _ = _block_times(monkeypatch, sliding=True)
    run = simulate_fixed(WeightedDigraph.from_laplacian(lap), g, x0, opts)
    t, x = assert_matches_stepwise(run, [(lap, opts.t_max)], g, x0, opts)
    assert blocks[0][0] == t[1] == opts.dt  # the first block went on after its first step
    assert x[0, 0] == 1.0 + 3e-7 and (x[1:, 0] == 1.0).all() and run.trajectory.sliding[:, 0].all()
    assert run.summary.sliding_flight_steps == sum(len(b) - 1 for b in blocks) > 1900


def _first_step_stop_case(name):
    if name == "capped":  # node 0's capped step lands an ulp short of a band narrower than that
        return np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]]), \
            np.array([-0.95, -0.4, -1000.0]), SimOptions(dt=2.0, band=1e-17, t_max=8.0)
    if name == "clipped":  # node 0 starts in a wide band, clamped, and slides from its second step
        return _follower_lap(), np.array([0.04, 1.5, -0.4999, -3.0]), \
            SimOptions(dt=1e-3, band=0.05, t_max=1.0)
    # node 0 overshoots into the band and, clamped there, back out below it
    return np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([-1.0, -0.06]), \
        SimOptions(dt=1.05, band=0.05, t_max=10.0)


@pytest.mark.parametrize("name", ["capped", "clipped", "band-edge"])
def test_a_capped_clamped_or_band_changing_first_step_ends_its_block(uj, name):
    lap, x0, opts = _first_step_stop_case(name)
    run = simulate_fixed(WeightedDigraph.from_laplacian(lap), uj, x0, opts)
    t, x = assert_matches_stepwise(run, [(lap, opts.t_max)], uj, x0, opts)
    if name == "capped":  # its band-edge index stays, but the later steps are full length
        assert t[1] < opts.dt and x[1, 0] < -opts.band and t[2] - t[1] == opts.dt
    elif name == "clipped":
        assert x[1, 0] > 0.04 and x[2, 0] == 0.0
        assert not run.trajectory.sliding[0, 0] and run.trajectory.sliding[1:-1, 0].all()
    else:
        assert abs(x[1, 0]) <= opts.band < -x[2, 0]


def test_sliding_flight_in_a_blinking_run_matches_stepwise(monkeypatch, uj):
    proc = process_for_blinking(BlinkingModel(n=12, K=0, p=0.15, w=0.2), UniformDuration(0.0, 1.0))
    x0 = np.random.default_rng(4).uniform(-2, 2, 12)
    opts = SimOptions(dt=5e-3, t_max=20.0, consensus_tol=1e-3)
    blocks, _ = _block_times(monkeypatch, sliding=True)
    run = simulate_switching(proc, uj, x0, opts, seed=4)
    s = run.summary
    segments = [(iv.lap, iv.t_end) for iv in sample_schedule(proc, opts.t_max, 4)[:s.n_intervals]]
    assert_matches_stepwise(run, segments, uj, x0, opts)
    assert s.sliding_flight_steps == sum(len(b) - 1 for b in blocks) > s.steps // 10
    assert max(len(b) - 1 for b in blocks) > 50 and s.fallback_steps > 0
    assert check_sliding_velocity(run.trajectory, segments, uj.breakpoint_xs) > 300


def test_sliding_flight_across_switching_segments_matches_stepwise(monkeypatch, uj):
    rng = np.random.default_rng(1)
    proc = process_for_graph(random_strongly_connected(rng, 6), ConstantDuration(0.25))
    x0 = rng.uniform(-1, 1, 6)
    opts = SimOptions(dt=1e-3, t_max=5.0)
    blocks, _ = _block_times(monkeypatch, sliding=True)
    run = simulate_switching(proc, uj, x0, opts, seed=1)
    schedule = sample_schedule(proc, opts.t_max, 1)
    segments = [(iv.lap, iv.t_end) for iv in schedule]
    assert_matches_stepwise(run, segments, uj, x0, opts)
    s = run.summary
    assert s.sliding_flight_steps == sum(len(b) - 1 for b in blocks) > 300 and s.fallback_steps == 0
    # blocks stop at segment ends, and three segments take some
    owners = [next(iv.k for iv in schedule if iv.t_start <= b[0] < iv.t_end) for b in blocks]
    assert all(b[-1] <= schedule[k].t_end for b, k in zip(blocks, owners)) and len(set(owners)) == 3
    assert check_sliding_velocity(run.trajectory, segments, uj.breakpoint_xs) > 300


def test_midpoint_flight_in_every_switching_segment_matches_stepwise(fig4):
    # fig4's source pair sits on the jump at 1 (a singular block, so midpoints) and the
    # run reaches a fixed point: later segments start on it, where a block takes no step
    proc = process_for_graph(fig4, ConstantDuration(0.25))
    opts = SimOptions(dt=1e-3, t_max=5.0)
    g = _two_jump_function()
    run = simulate_switching(proc, g, FIG4_X0, opts, seed=3)
    schedule = sample_schedule(proc, opts.t_max, 3)
    assert_matches_stepwise(run, [(iv.lap, iv.t_end) for iv in schedule], g, FIG4_X0, opts)
    s = run.summary
    assert s.fallback_steps == s.steps and s.sliding_flight_steps > 500
    assert s.fixed_point_steps > s.steps // 2


def test_sliding_flight_skips_the_stepper(monkeypatch, tmp_path):
    calls, builds, maps = _block_calls(monkeypatch), 0, 0
    banded_set, map_for = dynamics._Stepper._banded_set, dynamics._Stepper._map_for

    def counting_banded_set(self, k):
        nonlocal builds
        builds += 1
        return banded_set(self, k)

    def counting_map_for(self, *args):  # each call builds a new B
        nonlocal maps
        maps += 1
        return map_for(self, *args)

    monkeypatch.setattr(dynamics._Stepper, "_banded_set", counting_banded_set)
    monkeypatch.setattr(dynamics._Stepper, "_map_for", counting_map_for)
    paths = {p.stem: p for p in write_bundled(tmp_path / "bundle")}
    s = cli_run(load_config(paths["blinking-50"]), tmp_path / "out")["result"]
    assert (s["steps"], s["fallback_steps"]) == (19_226, 339)
    assert calls[0] <= 500 and builds <= 110 and maps <= 110
    assert_every_step_counted(s, calls[0])


def test_one_stepper_per_switching_run(monkeypatch, uj):
    inits = [0]
    init = dynamics._Stepper.__init__

    def counting(self, *args):
        inits[0] += 1
        init(self, *args)

    monkeypatch.setattr(dynamics._Stepper, "__init__", counting)
    proc = process_for_blinking(BlinkingModel(n=12, K=0, p=0.15, w=0.2), UniformDuration(0.0, 1.0))
    x0 = np.random.default_rng(4).uniform(-2, 2, 12)
    opts = SimOptions(dt=5e-3, t_max=20.0, consensus_tol=1e-3)
    run = simulate_switching(proc, uj, x0, opts, seed=4)
    assert run.summary.n_intervals > 10 and inits[0] == 1
    step(State(0.0, x0), sample_schedule(proc, 1.0, 4)[0].lap, uj, opts)
    assert inits[0] == 2  # the public step builds its own


@pytest.mark.parametrize("make_g", [unit_jump, _two_jump_function, _continuity_function])
@pytest.mark.parametrize("band", [1e-6, 0.25])
def test_cell_index_moves_with_band_edge_or_piece_index(make_g, band):
    # the post-check's one search: a state keeps its cell exactly when it keeps
    # its band-edge index k and its piece index p
    g = make_g()
    stepper = dynamics._Stepper(L2, g, SimOptions(band=band))
    marks = np.concatenate((stepper.edges, g._junctions, g.breakpoint_xs))
    xs = np.concatenate((marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
                         [0.0, -0.0, np.inf, -np.inf, np.nan]))
    cell = stepper.cells.searchsorted(xs, side="right")
    k = stepper.edges.searchsorted(xs, side="right")
    p = g._junctions.searchsorted(xs, side="left")
    finite = np.isfinite(xs)
    # k counts the band edges at or below x, p the junctions strictly below it
    np.testing.assert_array_equal(k[finite], (stepper.edges <= xs[finite, None]).sum(axis=1))
    np.testing.assert_array_equal(p[finite], (g._junctions < xs[finite, None]).sum(axis=1))
    same_cell = cell[:, None] == cell[None, :]
    same_kp = (k[:, None] == k[None, :]) & (p[:, None] == p[None, :])
    np.testing.assert_array_equal(same_cell, same_kp)
    assert len(np.unique(cell)) == len(stepper.edges) + len(g._junctions) + 1


@pytest.mark.parametrize("make_g", [unit_jump, _two_jump_function, _continuity_function])
@pytest.mark.parametrize("band", [1e-6, 0.25])
def test_cell_bracket_is_the_cell_search(make_g, band):
    # the post-check's bracket lo[c] <= x < hi[c] stands for "x is finite and in cell c"
    g = make_g()
    stepper = dynamics._Stepper(L2, g, SimOptions(band=band))
    big = np.finfo(float).max
    marks = np.concatenate((stepper.cells, stepper.edges, g._junctions, g.breakpoint_xs))
    xs = np.concatenate((marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
                         [0.0, -0.0, np.inf, -np.inf, np.nan, big, -big]))
    cells = np.arange(len(stepper.cells) + 1)
    in_cell = (stepper.cells.searchsorted(xs, side="right")[:, None] == cells) & np.isfinite(xs)[:, None]
    # one cell per column, as a block tests each component against its own cell
    np.testing.assert_array_equal(stepper._off_cell(xs[:, None], cells), ~in_cell)
    assert in_cell.any(axis=0).all() and not in_cell[~np.isfinite(xs)].any()

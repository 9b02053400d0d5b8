import numpy as np
import pytest
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
from consensus_lab.bundled import double_star_graph, fig4_graph
from consensus_lab.protocol import AffinePiece, CallablePiece, ClassAFunction, identity
from consensus_lab.switching import (
    BlinkingModel,
    ConstantDuration,
    process_for_blinking,
    process_for_graph,
    sample_schedule,
    simulate_switching,
)
from helpers import (
    adversarial_x0,
    check_selection_validity,
    check_shrinking,
    check_wra_conservation,
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


def test_finite_time_bound_not_applicable(two_node, uj):
    assert finite_time_bound(two_node, uj, np.array([1.0, 2.0])) is None


def test_finite_time_bound_needs_strong_connectivity(fig1, uj):
    with pytest.raises(ValueError, match="strongly connected"):
        finite_time_bound(fig1, uj, np.zeros(4))


def test_trajectory_csv_format(tmp_path, two_node, uj):
    run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-2, t_max=1.0))
    path = tmp_path / "traj.csv"
    run.trajectory.to_csv(path, stride=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,V"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, -1.0, 1.0, 2.0]
    # final sample is always present
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(run.trajectory.t[-1])


def test_simulate_rejects_bad_x0(two_node, uj):
    with pytest.raises(ValueError, match="length"):
        simulate_fixed(two_node, uj, np.zeros(3), SimOptions())
    with pytest.raises(ValueError, match="finite"):
        simulate_fixed(two_node, uj, np.array([np.nan, 0.0]), SimOptions())



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
    # 5.0037 is no multiple of dt: the short last step falls inside the replay
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


def test_fixed_point_fast_forward_skips_the_stepper(fig4, uj, monkeypatch):
    calls = 0
    advance = dynamics._Stepper.advance

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return advance(self, *args)

    monkeypatch.setattr(dynamics._Stepper, "advance", counting)
    run = simulate_fixed(fig4, uj, FIG4_X0, SimOptions(dt=1e-3, t_max=100.0), record_stride=10)
    assert run.summary.steps == 100_001  # summed dt falls just short of t_max: one short step
    assert calls <= 400
    s = run.summary
    assert s.fixed_point_steps + s.free_flight_steps + calls == s.steps


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
    # no jump: the middle nodes settle on an exact fixed point at 1.5 in free flight
    return fig4_graph(), identity(), np.array([1.0, 1.0, 0.3, 0.2, 2.0, 2.0]), \
        SimOptions(dt=1e-2, t_max=30.0)


def _block_times(monkeypatch):
    """The time grid of every free-flight block the following runs take."""
    blocks = []
    free_flight = dynamics._Stepper.free_flight

    def spy(self, *args):
        block = free_flight(self, *args)
        if block is not None:
            blocks.append(block[0].copy())
        return block

    monkeypatch.setattr(dynamics._Stepper, "free_flight", spy)
    return blocks


def _cut_reasons(t, x, blocks, lap, g, opts):
    """Why blocks ended, read off the reference states at and after each block's end."""
    edges = dynamics._Stepper(lap, g, opts).edges
    reasons = set()
    for i in np.searchsorted(t, [b[-1] for b in blocks]):
        if x[i].max() - x[i].min() < opts.consensus_tol:
            reasons.add("consensus")
        elif x[i + 1].tobytes() == x[i].tobytes() != x[i - 1].tobytes():
            reasons.add("fixed point")
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
])
def test_free_flight_matches_stepwise(monkeypatch, name, stride, reasons):
    graph, g, x0, opts = _free_flight_case(name)
    blocks = _block_times(monkeypatch)
    run = simulate_fixed(graph, g, x0, opts, record_stride=stride)
    lap = laplacian(graph)
    t, x = assert_matches_stepwise(run, [(lap, opts.t_max)], g, x0, opts, stride)
    assert run.summary.free_flight_steps == sum(len(b) - 1 for b in blocks) > 0
    assert reasons <= _cut_reasons(t, x, blocks, lap, g, opts)


def test_free_flight_across_switching_segments_matches_stepwise(monkeypatch, uj):
    proc = process_for_blinking(BlinkingModel(n=6, K=1, p=0.3, w=1.0), ConstantDuration(0.25))
    x0 = np.random.default_rng(22).uniform(-3, 3, 6)
    opts = SimOptions(dt=2e-3, t_max=10.0, consensus_tol=1e-4)
    blocks = _block_times(monkeypatch)
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


@pytest.mark.parametrize("stride", [0, 2.5, True])
def test_to_csv_rejects_bad_stride(tmp_path, two_node, uj, stride):
    run = simulate_fixed(two_node, uj, np.array([-1.0, 1.0]), SimOptions(dt=1e-2, t_max=0.1))
    with pytest.raises(ValueError, match="stride must be an integer >= 1"):
        run.trajectory.to_csv(tmp_path / "traj.csv", stride=stride)


def test_free_flight_hands_overflow_to_the_stepper(monkeypatch):
    # node 0 follows the fixed node 1 with dt = 10: x_0 <- -9 x_0 until it overflows
    lap = np.array([[1.0, -1.0], [0.0, 0.0]])
    x0, opts = np.array([1.0, 0.0]), SimOptions(dt=10.0, t_max=1e5)
    blocks = _block_times(monkeypatch)
    with pytest.raises(IntegrationError) as err:
        simulate_fixed(WeightedDigraph.from_laplacian(lap), identity(), x0, opts)
    with pytest.raises(IntegrationError) as ref:
        stepwise_reference([(lap, opts.t_max)], identity(), x0, opts)
    assert str(err.value) == str(ref.value)
    assert sum(len(b) - 1 for b in blocks) > 200

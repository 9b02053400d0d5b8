import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from consensus_lab import (
    BlinkingModel,
    BlinkingSampler,
    ConstantDuration,
    FixedGraphSampler,
    SimOptions,
    SwitchingProcess,
    UniformDuration,
    WeightedDigraph,
    estimate_expected_eta,
    is_delta_scrambling,
    laplacian,
    sample_blinking,
    sample_schedule,
    scrambling_coefficient,
    simulate_fixed,
    simulate_switching,
    unit_jump,
)
from consensus_lab import switching
from consensus_lab.protocol import AffinePiece, CallablePiece, ClassAFunction
from consensus_lab.switching import (
    AssumptionViolationError,
    blinking_eta_bracket,
    blinking_uncovered_probabilities,
    process_for_blinking,
    process_for_graph,
    write_interval_reports_csv,
)
from helpers import (
    blinking_exact,
    blinking_weights_one_draw,
    check_interval_decay,
    check_selection_validity,
    check_shrinking,
    eta_one_at_a_time,
)

INF = math.inf


def test_schedule_constant_durations_truncated(fig1):
    proc = process_for_graph(fig1, ConstantDuration(1.0))
    sched = sample_schedule(proc, 3.5, rng_seed=0)
    assert [s.t_start for s in sched] == [0.0, 1.0, 2.0, 3.0]
    assert sched[-1].t_end == 3.5
    assert all(s.duration > 0 for s in sched)


def test_schedule_replay_is_identical():
    model = BlinkingModel(n=8, K=1, p=0.3, w=0.5)
    proc = process_for_blinking(model, UniformDuration(0.0, 1.0))
    a = sample_schedule(proc, 10.0, rng_seed=123)
    b = sample_schedule(proc, 10.0, rng_seed=123)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.t_start == sb.t_start and sa.t_end == sb.t_end
        np.testing.assert_array_equal(sa.graph.weights, sb.graph.weights)
        np.testing.assert_array_equal(sa.lap, laplacian(sa.graph))


def test_schedule_renewal_rate(fig1):
    proc = process_for_graph(fig1, UniformDuration(0.0, 1.0))
    sched = sample_schedule(proc, 1000.0, rng_seed=7)
    expected = 1000.0 / 0.5
    assert abs(len(sched) - expected) <= 0.05 * expected


def test_schedule_rejects_nonpositive_duration(fig1):
    proc = process_for_graph(fig1, ConstantDuration(0.0))
    with pytest.raises(ValueError, match="non-positive"):
        sample_schedule(proc, 1.0, rng_seed=0)
    for value in (math.nan, -1.0):  # a run would never reach an interval end of NaN
        with pytest.raises(ValueError, match="non-positive"):
            sample_schedule(process_for_graph(fig1, ConstantDuration(value)), 1.0, rng_seed=0)


def test_schedule_takes_no_laplacian(monkeypatch, uj):
    # a process is its two samplers; a run takes each interval's Laplacian once, a schedule none
    assert [f.name for f in dataclasses.fields(SwitchingProcess)] == ["durations", "graphs"]
    proc = process_for_blinking(BlinkingModel(n=12, K=0, p=0.1, w=1.0), ConstantDuration(0.5))
    calls, lap = [], switching.laplacian
    monkeypatch.setattr(switching, "laplacian", lambda graph: calls.append(graph) or lap(graph))
    schedule = sample_schedule(proc, 20.0, 3)
    assert len(schedule) == 40 and calls == []
    x0 = np.random.default_rng(5).uniform(-1, 1, 12)
    res = simulate_switching(proc, uj, x0, SimOptions(dt=1e-2, t_max=20.0), seed=3, stop_at_consensus=False)
    assert len(calls) == res.summary.n_intervals == len(schedule)


def test_blinking_p1_complete():
    model = BlinkingModel(n=6, K=0, p=1.0, w=0.25)
    g = sample_blinking(model, np.random.default_rng(0))
    expected = 0.25 * (np.ones((6, 6)) - np.eye(6))
    np.testing.assert_array_equal(g.weights, expected)


def test_blinking_p0_empty():
    model = BlinkingModel(n=5, K=0, p=0.0, w=0.25)
    g = sample_blinking(model, np.random.default_rng(0))
    assert not g.weights.any()
    assert scrambling_coefficient(-laplacian(g)) == 0.0


def test_blinking_backbone_always_on():
    model = BlinkingModel(n=7, K=2, p=0.0, w=0.5)
    g = sample_blinking(model, np.random.default_rng(1))
    for i in range(7):
        for off in (1, 2):
            assert g.weights[(i + off) % 7, i] == 0.5
            assert g.weights[(i - off) % 7, i] == 0.5


@pytest.mark.parametrize("field, value", [
    ("n", 50.5), ("n", True), ("K", 1.5), ("p", "0.1"), ("p", True), ("w", math.inf), ("w", math.nan),
    ("w", "0.1"),
])
def test_blinking_model_rejects_a_malformed_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        BlinkingModel(**{"n": 50, "K": 0, "p": 0.1, "w": 0.1, field: value})


def test_blinking_edge_count_binomial():
    model = BlinkingModel(n=50, K=0, p=0.1, w=0.1)
    rng = np.random.default_rng(2)
    n_samples = 10_000
    counts = np.empty(n_samples)
    for i in range(n_samples):
        counts[i] = (sample_blinking(model, rng).weights > 0).sum()
    n_links, p = 50 * 49, 0.1
    se = math.sqrt(n_links * p * (1 - p) / n_samples)
    assert abs(counts.mean() - n_links * p) <= 3 * se


def test_blinking_link_independence():
    model = BlinkingModel(n=6, K=0, p=0.3, w=1.0)
    rng = np.random.default_rng(3)
    n_samples = 10_000
    flat = np.empty((n_samples, 36))
    for i in range(n_samples):
        flat[i] = (sample_blinking(model, rng).weights > 0).ravel()
    links = [(0, 1), (1, 0), (2, 5), (4, 3)]
    idx = [6 * a + b for a, b in links]
    null_sigma = 1.0 / math.sqrt(n_samples)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            corr = np.corrcoef(flat[:, idx[a]], flat[:, idx[b]])[0, 1]
            assert abs(corr) <= 3.5 * null_sigma


def test_switching_constant_fig1_decay(fig1, uj):
    proc = process_for_graph(fig1, ConstantDuration(1.0))
    x0 = np.random.default_rng(5).uniform(-5, 5, 4)
    opts = SimOptions(dt=1e-3, t_max=6.0)
    res = simulate_switching(proc, uj, x0, opts, seed=42, stop_at_consensus=False)
    assert res.summary.epsilon == 1.0 and res.summary.epsilon_exact
    assert res.summary.n_intervals == 6
    check_interval_decay(res.reports, opts.dt)
    # disagreement is nonincreasing across switch instants too
    starts = [r.v_start for r in res.reports] + [res.reports[-1].v_end]
    assert all(b <= a + 1e-12 for a, b in zip(starts, starts[1:]))
    # chained bound: V at the horizon against the accumulated exponent
    total_slack = 10 * opts.dt * len(res.reports)
    assert res.reports[-1].v_end <= (
        starts[0] * math.exp(-res.summary.cumulative_exponent) + total_slack
    )
    check_shrinking(res.trajectory, 4.0)
    check_selection_validity(res.trajectory, uj)


def test_switching_constant_x0_reports_zero(fig1, uj):
    proc = process_for_graph(fig1, ConstantDuration(0.5))
    res = simulate_switching(proc, uj, np.full(4, 1.3), SimOptions(t_max=2.0), seed=0,
                             stop_at_consensus=False)
    assert res.summary.consensus_reached
    for r in res.reports:
        assert r.v_start == 0.0 and r.v_end == 0.0


def test_switching_early_stop_trims_interval(fig1, uj):
    proc = process_for_graph(fig1, ConstantDuration(10.0))
    x0 = np.array([-1.0, 1.0, 0.5, -0.5])
    res = simulate_switching(proc, uj, x0, SimOptions(dt=1e-3, t_max=50.0), seed=1)
    assert res.summary.consensus_reached
    assert res.reports[-1].dt < 10.0
    assert res.summary.time_to_tol < 50.0


def test_switching_samples_only_the_intervals_it_reaches(fig1, uj):
    calls = []

    def counting(rng):
        calls.append(1)
        return fig1

    proc = SwitchingProcess(UniformDuration(0.0, 1.0), counting)
    x0 = np.array([-1.0, 1.0, 0.5, -0.5])
    res = simulate_switching(proc, uj, x0, SimOptions(dt=1e-3, t_max=400.0), seed=4)
    assert res.summary.consensus_reached
    assert len(calls) == res.summary.n_intervals


def _held_after_run(t_max):
    """Bytes a blinking run at n=100 still holds when it has returned, and its interval count."""
    proc = process_for_blinking(BlinkingModel(n=100, K=0, p=0.1, w=0.1), UniformDuration(0.0, 1.0))
    x0 = np.random.default_rng(0).uniform(-1, 1, 100)
    tracemalloc.start()
    try:
        res = simulate_switching(proc, unit_jump(), x0, SimOptions(dt=0.1, t_max=t_max), seed=0,
                                 record_stride=1000, stop_at_consensus=False, delta=0.1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, res.summary.n_intervals


def test_switching_run_holds_one_graph_at_a_time():
    # a graph is 80 kB at n=100: holding one per interval would add about 25 MB
    (short, k_short), (long, k_long) = _held_after_run(48.0), _held_after_run(208.0)
    assert k_short > 80 and k_long > 400
    assert long - short < 1e6


def _random_weights(rng):
    w = rng.uniform(0.0, 1.0, (8, 8)) * (rng.random((8, 8)) < 0.6)
    np.fill_diagonal(w, 0.0)
    return WeightedDigraph(8, w)


def test_switching_reads_each_interval_when_taken(uj):
    proc = SwitchingProcess(UniformDuration(0.0, 1.0), _random_weights)
    x0 = np.random.default_rng(2).uniform(-1, 1, 8)
    taken = []
    res = simulate_switching(proc, uj, x0, SimOptions(dt=1e-2, t_max=5.0), seed=9,
                             stop_at_consensus=False, delta=0.3, on_interval=taken.append)
    schedule = sample_schedule(proc, 5.0, rng_seed=9)
    assert [i.k for i in taken] == [r.k for r in res.reports] == [i.k for i in schedule]
    for interval, report in zip(schedule, res.reports):
        assert report.eta == scrambling_coefficient(-interval.lap)
    for interval in taken:  # an interval holds its graph and no Laplacian
        assert not [v for v in vars(interval).values() if isinstance(v, np.ndarray)]
    verdicts = [is_delta_scrambling(interval.graph, 0.3) for interval in schedule]
    # the weights make the delta count differ from the count of scrambling graphs
    assert res.summary.delta_scrambling_intervals == sum(verdicts) == 3
    assert sum(r.eta > 0 for r in res.reports) == 9


def test_eta_zero_intervals_take_no_delta_verdict(monkeypatch, uj):
    # a delta-scrambling graph covers every pair, so an interval whose eta is 0 needs no verdict
    proc = process_for_blinking(BlinkingModel(n=12, K=0, p=0.1, w=1.0), ConstantDuration(0.5))
    x0 = np.random.default_rng(5).uniform(-1, 1, 12)
    opts = SimOptions(dt=1e-2, t_max=5.0)
    calls, verdict = [], switching.is_delta_scrambling
    monkeypatch.setattr(switching, "is_delta_scrambling", lambda *args: calls.append(args) or verdict(*args))
    res = simulate_switching(proc, uj, x0, opts, seed=1, stop_at_consensus=False, delta=0.1)
    schedule = sample_schedule(proc, opts.t_max, 1)
    assert res.summary.n_intervals == len(schedule) == 10 and all(r.eta == 0.0 for r in res.reports)
    assert calls == []
    assert res.summary.delta_scrambling_intervals == sum(verdict(iv.graph, 0.1) for iv in schedule) == 0
    with pytest.raises(ValueError, match="delta must be positive"):
        simulate_switching(proc, uj, x0, opts, seed=1, delta=-1.0)
    with pytest.raises(ValueError, match="delta must be positive"):
        simulate_switching(proc, uj, x0, opts, seed=1, delta=math.nan)


def test_switching_rejects_empty_x0(fig1, uj):
    with pytest.raises(ValueError, match="x0"):
        simulate_switching(process_for_graph(fig1, ConstantDuration(1.0)), uj, np.zeros(0),
                           SimOptions(), seed=0)


def test_switching_rejects_x0_of_the_wrong_length(fig1, uj):
    with pytest.raises(ValueError, match="state must have length 4"):
        simulate_switching(process_for_graph(fig1, ConstantDuration(1.0)), uj,
                           np.array([0.0, 1.0, 2.0]), SimOptions(t_max=2.0), seed=0)


@pytest.mark.parametrize("name, x0, t_max", [
    ("double_star", np.random.default_rng(7).uniform(-5, 5, 12), 100.0),
    ("fig4", np.array([1.0, 1.0, 0.3, -0.2, -1.0, -1.0]), 5.0),
])
def test_one_segment_schedule_is_the_fixed_run(request, uj, name, x0, t_max):
    graph = request.getfixturevalue(name)
    opts = SimOptions(dt=1e-3, t_max=t_max)
    fixed = simulate_fixed(graph, uj, x0, opts).trajectory
    switched = simulate_switching(process_for_graph(graph, ConstantDuration(t_max)), uj, x0,
                                  opts, seed=0).trajectory
    for field in ("t", "x", "gamma", "sliding"):
        np.testing.assert_array_equal(getattr(switched, field), getattr(fixed, field))


def test_switching_delta_scrambling_count(fig1, uj):
    proc = process_for_graph(fig1, ConstantDuration(1.0))
    res = simulate_switching(proc, uj, np.array([-2.0, 2.0, 1.0, -1.0]),
                             SimOptions(dt=1e-3, t_max=3.0), seed=2,
                             stop_at_consensus=False, delta=1.0)
    assert res.summary.delta_scrambling_intervals == res.summary.n_intervals == 3


def test_assumption_violation_aborts(fig1):
    # decreasing far outside the validation window but inside the state hull
    sneaky = ClassAFunction([CallablePiece(-INF, INF, lambda s: s if abs(s) < 50 else -s)])
    from consensus_lab import validate_class_a

    assert validate_class_a(sneaky) is None  # the coarse window misses the flaw
    proc = process_for_graph(fig1, ConstantDuration(1.0))
    x0 = np.array([-100.0, 100.0, 0.0, 0.0])
    with pytest.raises(AssumptionViolationError, match="separation"):
        simulate_switching(proc, sneaky, x0, SimOptions(t_max=2.0), seed=0)


def test_nan_separation_aborts(fig1):
    # NaN only beyond the validation window but inside the state hull: nothing is certified
    nan_tail = ClassAFunction([CallablePiece(-INF, 0.0, lambda s: s if s > -50 else math.nan, hi_limit=0.0),
                               AffinePiece(0.0, INF, 1.0, 1.0)])
    proc = process_for_graph(fig1, ConstantDuration(1.0))
    with pytest.raises(AssumptionViolationError, match="separation ratio nan"):
        simulate_switching(proc, nan_tail, np.array([-100.0, 100.0, 0.0, 0.0]), SimOptions(t_max=2.0), seed=0)


def test_estimate_expected_eta_fixed_fig1(fig1):
    est = estimate_expected_eta(FixedGraphSampler(fig1), 200, rng_seed=0)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.std_error == 0.0
    assert est.certified_positive


def test_estimate_expected_eta_empty_blinking():
    sampler = BlinkingSampler(BlinkingModel(n=5, K=0, p=0.0, w=0.1))
    est = estimate_expected_eta(sampler, 100, rng_seed=0)
    assert est.mean == 0.0 and not est.certified_positive


def test_estimate_expected_eta_full_blinking():
    n, w = 6, 0.25
    sampler = BlinkingSampler(BlinkingModel(n=n, K=0, p=1.0, w=w))
    est = estimate_expected_eta(sampler, 50, rng_seed=0)
    assert est.mean == pytest.approx(n * w, rel=1e-12)
    assert est.std_error == 0.0


def test_estimate_certification_dense_blinking():
    # dense enough that most samples are scrambling: the 3-sigma rule certifies
    sampler = BlinkingSampler(BlinkingModel(n=8, K=0, p=0.6, w=1.0))
    est = estimate_expected_eta(sampler, 400, rng_seed=1)
    assert est.mean > 0 and est.certified_positive


# (n, K, p, w) and the exact E[eta] from enumerating every link configuration
EXACT_BLINKING = [
    ((3, 0, 0.3, 0.5), 0.14426),
    ((4, 0, 0.3, 0.5), 0.071685),
    ((4, 0, 0.1, 0.1), 0.00043912),
    ((5, 1, 0.2, 0.3), 0.34848),  # the ring backbone covers every pair
]


@pytest.mark.parametrize("params, reference", EXACT_BLINKING)
def test_eta_bracket_contains_exact_values(params, reference):
    model = BlinkingModel(*params)
    p_scr, e_eta = blinking_exact(model)
    assert e_eta == pytest.approx(reference, rel=1e-4)
    b = blinking_eta_bracket(model)
    assert b.certified_positive
    rel = 1 + 1e-12  # float rounding in the enumeration sums
    assert math.exp(b.log_lower) <= e_eta * rel and e_eta <= math.exp(b.log_upper) * rel
    # the same bracket divided by the eta range [w, n w] bounds P(scrambling)
    assert math.exp(b.log_lower) / model.w <= p_scr * rel
    assert p_scr <= math.exp(b.log_upper) / (model.n * model.w) * rel


def test_eta_bracket_backbone_covering_all_pairs():
    model = BlinkingModel(n=5, K=1, p=0.2, w=0.3)
    assert not blinking_uncovered_probabilities(model).any()
    assert blinking_eta_bracket(model).log_lower == pytest.approx(math.log(0.3), abs=1e-15)


def test_estimate_expected_eta_matches_enumeration():
    model = BlinkingModel(n=4, K=0, p=0.3, w=0.5)
    _, exact = blinking_exact(model)
    est = estimate_expected_eta(BlinkingSampler(model), 4000, rng_seed=0)
    assert abs(est.mean - exact) <= 4 * est.std_error


_ETA_MODELS = [(50, 0, 0.1, 0.1), (8, 1, 0.5, 0.3), (4, 0, 0.3, 0.5), (5, 0, 0.0, 0.1), (6, 0, 1.0, 0.25)]


def _stack_sizes(n):
    """Sample counts below, equal to and across the stack size at n vertices."""
    b = switching._ETA_STACK_ELEMENTS // n**2
    return [2, b - 1, b, b + 1, 2 * b + 3]


def _spy_scrambling(monkeypatch):
    calls = [0]
    inner = switching.scrambling_coefficient

    def counting(m):
        calls[0] += 1
        return inner(m)

    monkeypatch.setattr(switching, "scrambling_coefficient", counting)
    return calls


@pytest.mark.parametrize("params", _ETA_MODELS, ids=str)
def test_stacked_eta_draws_match_one_at_a_time(monkeypatch, params):
    model, calls = BlinkingModel(*params), _spy_scrambling(monkeypatch)
    for n_samples in _stack_sizes(model.n):
        vals, mean, se = eta_one_at_a_time(lambda rng: sample_blinking(model, rng), n_samples, 17)
        calls[0] = 0
        est = estimate_expected_eta(BlinkingSampler(model), n_samples, rng_seed=17)
        assert (est.mean, est.std_error, est.n_samples) == (mean, se, n_samples)
        # only the samples that scramble pay for the dense coefficient
        assert calls[0] == np.count_nonzero(vals > 0)
    if params[:3] == (8, 1, 0.5):
        assert np.count_nonzero(vals > 0) > n_samples // 2


def test_stacked_eta_draws_of_a_fixed_graph(fig1, fig4):
    # fig1 scrambles and fig4 does not
    for graph in (fig1, fig4):
        for n_samples in _stack_sizes(graph.n):
            vals, mean, se = eta_one_at_a_time(lambda rng: graph, n_samples, 3)
            est = estimate_expected_eta(FixedGraphSampler(graph), n_samples, rng_seed=3)
            assert (est.mean, est.std_error, est.n_samples) == (mean, se, n_samples)
        assert (vals > 0).all() == (graph is fig1)


@pytest.mark.parametrize("params", _ETA_MODELS, ids=str)
def test_sample_blinking_is_a_slice_of_the_stack(params):
    # a switching schedule draws one graph per interval: it must see the stream
    # as the stacks of estimate_expected_eta and as one (n, n) draw per graph do
    model = BlinkingModel(*params)
    stack = BlinkingSampler(model).stack(np.random.default_rng(8), 9)
    one, reference = np.random.default_rng(8), np.random.default_rng(8)
    for weights in stack:
        g = sample_blinking(model, one)
        np.testing.assert_array_equal(g.weights, weights)
        np.testing.assert_array_equal(g.weights, blinking_weights_one_draw(model, reference))
    assert one.random() == reference.random()


def test_eta_bracket_empty_blinking():
    # mirrors test_estimate_expected_eta_empty_blinking: no links, eta = 0
    b = blinking_eta_bracket(BlinkingModel(n=5, K=0, p=0.0, w=0.1))
    assert b.log_lower == -INF and not b.certified_positive


def test_eta_bracket_blinking_50():
    model = BlinkingModel(n=50, K=0, p=0.1, w=0.1)
    q = blinking_uncovered_probabilities(model)
    iu = np.triu_indices(50, k=1)
    np.testing.assert_allclose(q[iu], 0.9**2 * 0.99**48, rtol=1e-12)
    b = blinking_eta_bracket(model)
    assert b.log_lower == pytest.approx(-851.42, abs=0.01)
    assert b.certified_positive and math.exp(b.log_lower) == 0.0  # below float64
    assert math.exp(b.log_upper) == pytest.approx(50 * 0.1 * (1 - 0.9**2 * 0.99**48) ** 25)


def test_interval_reports_csv(tmp_path, fig1, uj):
    proc = process_for_graph(fig1, ConstantDuration(1.0))
    res = simulate_switching(proc, uj, np.array([-1.0, 1.0, 0.0, 0.5]),
                             SimOptions(dt=1e-3, t_max=2.0), seed=3, stop_at_consensus=False)
    path = tmp_path / "intervals.csv"
    write_interval_reports_csv(res.reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,dt,eta,v_start,v_end,bound_rhs"
    assert len(lines) == len(res.reports) + 1
    fields = lines[1].split(",")
    assert int(fields[0]) == 0
    assert float(fields[2]) == 1.0  # eta of the seed graph

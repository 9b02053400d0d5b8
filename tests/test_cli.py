import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from consensus_lab import cli, graph, switching
from consensus_lab.bundled import bundled_examples, write_bundled
from consensus_lab.cli import ConfigError, ExperimentConfig, load_config, main, run
from consensus_lab.dynamics import RunSummary


@pytest.fixture
def bundle(tmp_path):
    write_bundled(tmp_path / "bundle")
    return tmp_path / "bundle"


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


def _write_config(path, **raw):
    path.write_text(json.dumps(raw))
    return path


def test_bundled_examples_present():
    names = bundled_examples()
    for required in ("fig1-analyze", "double-star", "blinking-50", "fig4-nonconsensus"):
        assert required in names


def test_analyze_fig1(bundle, tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(bundle / "fig1-analyze.json"), "--out", str(out)])
    assert code == 0
    s = read_summary(out)
    assert s["graph"]["s1"] == [0, 1]
    assert s["graph"]["s2"] == [2, 3]
    assert s["graph"]["eta_hat"] == 1.0
    assert s["graph"]["scrambling"] is True
    assert s["graph"]["delta_scrambling"]["1.0"] is True
    assert (out / "graph.edges").exists()


def test_analyze_one_vertex_with_delta(tmp_path):
    # neither eta nor delta-scrambling is defined for one vertex: both report None
    (tmp_path / "one.edges").write_text("n 1\n")
    cfg_path = tmp_path / "one.json"
    cfg_path.write_text(json.dumps({"mode": "analyze", "graph": {"edge_list": "one.edges"},
                                    "delta": 0.5}))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = read_summary(out)["graph"]
    assert report["eta_hat"] is None and report["delta_scrambling"] == {"0.5": None}
    assert report["has_spanning_tree"] is True and report["s1"] == [0]


def test_fixed_double_star(bundle, tmp_path):
    out = tmp_path / "out"
    code = main(["fixed", "--config", str(bundle / "double-star.json"), "--out", str(out)])
    assert code == 0
    s = read_summary(out)
    assert s["result"]["consensus_reached"] is True
    assert abs(s["result"]["consensus_value"] - s["result"]["wra_predicted"]) < 1e-3
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"x_{i}" for i in range(12)) + ",V"


def test_fixed_point_steps_reported(bundle, tmp_path):
    out = tmp_path / "out"
    code = main(["fixed", "--config", str(bundle / "fig4-nonconsensus.json"), "--out", str(out),
                 "--t-max", "2.0"])
    assert code == 0
    result = read_summary(out)["result"]
    assert result["consensus_reached"] is False
    assert 0 < result["fixed_point_steps"] < result["steps"]
    # the free steps before the fixed point are taken in free-flight blocks
    assert 0 < result["free_flight_steps"] <= result["steps"] - result["fixed_point_steps"]


def _count_calls(monkeypatch, name):
    """Count the calls of ``graph.<name>``, made through any package module."""
    original, calls = getattr(graph, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("consensus_lab") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def test_fixed_run_takes_each_root_set_once_per_use(tmp_path, monkeypatch):
    # simulate_fixed (for wra), the graph report and finite_time_bound each take
    # the root set once; wra and finite_time_bound each take the left null vector once
    (tmp_path / "cycle.edges").write_text("n 3\n0 1 1.0\n1 2 1.0\n2 0 1.0\n")
    cfg_path = tmp_path / "cycle.json"
    cfg_path.write_text(json.dumps({
        "mode": "fixed", "graph": {"edge_list": "cycle.edges"}, "function": {"preset": "unit-jump"},
        "x0": {"values": [-1.0, 0.0, 1.0]}, "options": {"dt": 1e-2, "t_max": 5.0}}))
    roots = _count_calls(monkeypatch, "root_partition")
    null_vectors = _count_calls(monkeypatch, "left_null_vector")
    summary = run(load_config(cfg_path), tmp_path / "out")
    assert (len(roots), len(null_vectors)) == (3, 2)
    # the weighted root average 0 sits on the jump: V_L(x0) = 2/3 and lambda_2 = -1
    assert summary["finite_time_bound"] == pytest.approx(8 / 3)


def test_switching_mode_writes_intervals(bundle, tmp_path):
    cfg_path = tmp_path / "switching.json"
    cfg_path.write_text(json.dumps({
        "mode": "switching",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "durations": {"constant": 1.0},
        "function": {"preset": "unit-jump"},
        "x0": {"uniform": {"lo": -5, "hi": 5}},
        "options": {"t_max": 4.0},
        "delta": 1.0,
        "seed": 5,
    }))
    out = tmp_path / "out"
    assert main(["switching", "--config", str(cfg_path), "--out", str(out)]) == 0
    s = read_summary(out)
    assert (out / "intervals.csv").exists()
    assert s["switching"]["epsilon"] == 1.0
    assert s["switching"]["delta_scrambling_fraction"] == 1.0


def test_expected_eta_mode(bundle, tmp_path):
    cfg_path = tmp_path / "eta.json"
    cfg_path.write_text(json.dumps({
        "mode": "expected-eta",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "n_samples": 50,
        "seed": 5,
    }))
    out = tmp_path / "out"
    assert main(["expected-eta", "--config", str(cfg_path), "--out", str(out)]) == 0
    s = read_summary(out)
    assert s["expected_eta"]["mean"] == 1.0
    assert s["expected_eta"]["certified_positive"] is True


def test_summary_block_layout(bundle, tmp_path):
    # perfbench reads result.steps, switching.schedule_seed and switching.n_intervals
    fig1 = {"edge_list": str(bundle / "graphs" / "fig1.edges")}
    common = {"graph": fig1, "function": {"preset": "unit-jump"},
              "x0": {"values": [-1.0, 1.0, 0.0, 0.0]}, "options": {"t_max": 2.0}}

    def blocks(**raw):
        path = tmp_path / f"{raw['mode']}.json"
        path.write_text(json.dumps(raw))
        summary = run(load_config(path), tmp_path / raw["mode"])
        return {k: set(summary[k]) for k in ("result", "switching", "expected_eta") if k in summary}

    run_fields = {f.name for f in dataclasses.fields(RunSummary)}
    assert "steps" in run_fields
    assert blocks(mode="fixed", **common) == {
        "result": run_fields | {"consensus_value", "wra_predicted"},
    }
    assert blocks(mode="switching", durations={"constant": 1.0}, delta=1.0, **common) == {
        "result": run_fields,
        "switching": {"n_intervals", "epsilon", "epsilon_exact", "cumulative_exponent",
                      "schedule_seed", "delta", "delta_scrambling_intervals",
                      "delta_scrambling_fraction"},
    }
    assert blocks(mode="expected-eta", graph=fig1, n_samples=10) == {
        "expected_eta": {"mean", "std_error", "n_samples", "certified_positive"},
    }


def test_missing_config_exits_2(capsys):
    assert main(["fixed", "--config", "/nonexistent/x.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_mode_mismatch_exits_2(bundle):
    assert main(["switching", "--config", str(bundle / "double-star.json")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"mode": "fixed", "grpah": {}}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(p)


def test_base_dir_config_key_rejected(tmp_path, capsys):
    # base_dir is an ExperimentConfig field, but it comes from the config's location
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"mode": "analyze", "graph": {"edge_list": "g.edges"}, "base_dir": "."}))
    assert main(["analyze", "--config", str(p)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_required_fields(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"mode": "fixed", "graph": {"edge_list": "g.edges"}}))
    with pytest.raises(ConfigError, match="needs config fields"):
        load_config(p)


@pytest.mark.parametrize("key, value", [
    ("n_samples", 1), ("runs", 0), ("runs", -3), ("stride", 0), ("stride", 2.5), ("runs", True),
])
def test_bad_counts_rejected(bundle, tmp_path, capsys, key, value):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "mode": "expected-eta",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        key: value,
    }))
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        load_config(p)
    assert main(["expected-eta", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_runs_override_rejected(bundle):
    with pytest.raises(ConfigError, match="runs must be an integer >= 1"):
        load_config(bundle / "double-star.json", overrides={"runs": 0})


def test_missing_edge_list_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "mode": "analyze",
        "graph": {"edge_list": "missing.edges"},
        "seed": 0,
    }))
    cfg = load_config(p)
    with pytest.raises(ConfigError, match="edge list file not found"):
        run(cfg, tmp_path / "out")


def test_x0_length_mismatch(bundle, tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "mode": "fixed",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "function": {"preset": "unit-jump"},
        "x0": {"values": [1.0, 2.0]},
        "seed": 0,
    }))
    assert main(["fixed", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


_MISSING = object()  # a config key left out
_AFFINE = {"interval": ["-inf", "inf"], "kind": "affine"}
_JUMP = {"pieces": [{"interval": ["-inf", 0.0], "slope": 1.0, "intercept": 0.0},
                    {"interval": [0.0, "inf"], "slope": 1.0, "intercept": 1.0}]}


@pytest.mark.parametrize("key, value, field", [
    ("x0", {"uniform": {"lo": -1.0}}, "x0.uniform"),
    ("x0", {"uniform": {"hi": 1.0}}, "x0.uniform"),
    ("x0", {"values": ["a", 1.0, 2.0, 3.0]}, "x0.values"),
    ("durations", {"uniform": [0.1, 0.2, 0.3]}, "durations.uniform"),
    ("durations", {"constant": "long"}, "durations.constant"),
    ("function", {"pieces": [{**_AFFINE, "intercept": 0.0}]}, "slope"),
    ("function", {"pieces": [{**_AFFINE, "slope": 1.0}]}, "intercept"),
    ("function", {"pieces": [{**_AFFINE, "slope": "steep", "intercept": 0.0}]}, "slope"),
    ("function", {"pieces": [{**_AFFINE, "slope": 1.0, "intercept": "x"}]}, "intercept"),
    ("function", {"pieces": [{**_AFFINE, "interval": ["-inf", "x"], "slope": 1.0, "intercept": 0.0}]},
     "interval"),
    ("function", {"pieces": [{**_AFFINE, "interval": ["-inf", 0, "inf"], "slope": 1.0, "intercept": 0.0}]},
     "piece 0: interval"),
    ("function", {**_JUMP, "breakpoints": [{"x": "zero", "left": 0.0, "right": 1.0}]}, "breakpoints[0].x"),
    ("function", {**_JUMP, "breakpoints": [{"x": 0.0, "left": "low", "right": 1.0}]}, "breakpoints[0].left"),
    ("function", {**_JUMP, "breakpoints": [{"x": 0.0, "left": 0.0, "right": [1.0]}]}, "breakpoints[0].right"),
    ("options", {"dt": "fast"}, "dt must be a real number"),
    ("options", {"t_max": True}, "t_max must be a real number"),
    ("delta", -1, "delta"),
    ("delta", "x", "delta"),
    ("delta", True, "delta"),
    ("delta", 0, "delta"),
    ("graph_dump_stride", "2", "graph_dump_stride"),
    ("graph_dump_stride", -1, "graph_dump_stride"),
    ("seed", -1, "seed"),
    ("seed", "abc", "seed"),
    ("out", 5, "out"),
    ("name", ["x"], "name"),
    ("mode", _MISSING, "mode"),
    ("graph", 5, "graph"),
    ("graph", "edge_list.edges", "graph"),
    ("graph", {"edge_list": 5}, "graph"),
    ("graph", {"edge_list": ["a"]}, "graph"),
    ("x0", 5, "x0"),
    ("x0", {"values": [1.0, 2.0]}, "x0"),
    ("durations", 5, "durations"),
    ("function", {"pieces": {"interval": ["-inf", "inf"], "slope": 1.0, "intercept": 0.0}}, "function"),
    ("function", {"pieces": [5]}, "function"),
    ("x0", {"uniform": {"lo": "-inf", "hi": 5.0}}, "x0 uniform range"),
    ("x0", {"values": ["nan", 1.0, 2.0, 3.0]}, "x0.values"),
    ("x0", {"values": [0.0, 1.0, "inf", 3.0]}, "x0.values"),
    ("durations", {"constant": "nan"}, "constant duration"),
    ("durations", {"uniform": [0.0, "inf"]}, "uniform duration"),
    ("function", {"pieces": [{**_JUMP["pieces"][0], "slope": "inf"}, _JUMP["pieces"][1]]}, "piece 0: slope"),
    ("function", {"pieces": [{**_JUMP["pieces"][0], "intercept": "nan"}, _JUMP["pieces"][1]]},
     "intercept must be finite"),
    ("options", {"dtt": 1}, "unknown simulation option"),
    ("durations", {"poisson": 1}, "durations must be"),
    ("x0", {"normal": 1}, "x0 must be"),
    ("function", {"name": "x"}, "function: function spec needs either"),
    ("function", {"pieces": [{**_AFFINE, "kind": "callable", "slope": 1.0, "intercept": 0.0}]},
     "piece 0: only 'affine' pieces"),
    ("function", {**_JUMP, "breakpoints": [{"x": 5.0, "left": 0.0, "right": 1.0}]},
     "declared breakpoint at 5.0 is not a junction"),
])
def test_malformed_config_field_exits_2(bundle, tmp_path, capsys, key, value, field):
    cfg = {
        "mode": "switching",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "function": {"preset": "unit-jump"},
        "x0": {"values": [0.0, 1.0, 2.0, 3.0]},
        "durations": {"constant": 0.5},
        "options": {"t_max": 1.0},
        key: value,
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps({k: v for k, v in cfg.items() if v is not _MISSING}))
    assert main(["switching", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["blinking", "expected-eta"])
@pytest.mark.parametrize("field, value", [("n", 50.5), ("K", 1.5), ("p", "0.1"), ("w", float("inf"))])
def test_malformed_blinking_model_exits_2(bundle, tmp_path, capsys, mode, field, value):
    model = {"n": 50, "K": 0, "p": 0.1, "w": 0.1, field: value}
    if mode == "blinking":
        raw = {**bundled_examples()["blinking-50"], "graph": {"blinking": model}}
    else:
        raw = {"mode": mode, "graph": {"blinking": model}, "n_samples": 10}
    p = _write_config(tmp_path / "c.json", **raw)  # json.dumps writes inf as Infinity
    out = tmp_path / "o"
    assert main([mode, "--config", str(p), "--out", str(out)]) == 2
    assert f"config error: graph: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_x0_length_mismatch_in_a_batch_writes_nothing(bundle, tmp_path, capsys):
    p = _write_config(tmp_path / "c.json", mode="fixed",
                      graph={"edge_list": str(bundle / "graphs" / "fig1.edges")},
                      function={"preset": "unit-jump"}, x0={"values": [1.0, 2.0]})
    out = tmp_path / "o"
    assert main(["fixed", "--config", str(p), "--out", str(out), "--runs", "3"]) == 2
    assert "config error: x0 has 2 entries but the graph has 4 vertices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["switching", "expected-eta"])
def test_one_vertex_graph_rejected_before_writing(tmp_path, capsys, mode):
    (tmp_path / "one.edges").write_text("n 1\n")
    extra = {} if mode == "expected-eta" else {
        "durations": {"constant": 0.5}, "function": {"preset": "unit-jump"}, "x0": {"values": [0.0]}}
    p = _write_config(tmp_path / "c.json", mode=mode, graph={"edge_list": "one.edges"}, **extra)
    out = tmp_path / "o"
    assert main([mode, "--config", str(p), "--out", str(out)]) == 2
    assert f"config error: mode {mode!r} needs at least two vertices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["analyze", "fixed"])
def test_one_vertex_graph_runs_in_analyze_and_fixed(tmp_path, mode):
    (tmp_path / "one.edges").write_text("n 1\n")
    p = _write_config(tmp_path / "c.json", mode=mode, graph={"edge_list": "one.edges"},
                      function={"preset": "unit-jump"}, x0={"values": [0.5]})
    out = tmp_path / "o"
    assert main([mode, "--config", str(p), "--out", str(out)]) == 0
    assert read_summary(out)["graph"]["n"] == 1


@pytest.mark.parametrize("name", ["double-star", "blinking-50"])
def test_bad_delta_exits_2_before_integrating(bundle, tmp_path, capsys, name):
    cfg = {**json.loads((bundle / f"{name}.json").read_text()), "delta": -1}
    p = bundle / "bad-delta.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([cfg["mode"], "--config", str(p), "--out", str(out)]) == 2
    assert "config error: delta must be" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_override_exits_2(bundle, tmp_path, capsys):
    assert main(["fixed", "--config", str(bundle / "double-star.json"), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    assert "config error: seed must be an integer >= 0" in capsys.readouterr().err


def test_fixed_overlapping_jump_bands_exit_2(bundle, tmp_path, capsys):
    pieces = [{"interval": lohi, "slope": 1.0, "intercept": c}
              for lohi, c in ((["-inf", 0.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, "inf"], 2.0))]
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "mode": "fixed",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "function": {"pieces": pieces},
        "x0": {"values": [0.0, 1.0, 2.0, 3.0]},
        "options": {"band": 0.6, "t_max": 1.0},
    }))
    assert main(["fixed", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config error: jump bands overlap" in capsys.readouterr().err


@pytest.mark.parametrize("runs", [[], ["--runs", "3"]])
@pytest.mark.parametrize("case", ["overlapping-bands", "nan-x0"])
def test_run_phase_config_errors_write_nothing(bundle, tmp_path, capsys, monkeypatch, case, runs):
    # both errors used to surface only inside the simulation, after graph.edges was written
    pieces = [{"interval": lohi, "slope": 1.0, "intercept": c}
              for lohi, c in ((["-inf", 0.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, "inf"], 2.0))]
    cfg = {"mode": "fixed", "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
           "function": {"pieces": pieces}, "x0": {"values": [0.0, 1.0, 2.0, 3.0]},
           "options": {"band": 0.6, "t_max": 1.0}}
    if case == "nan-x0":
        cfg.update(function={"preset": "unit-jump"}, x0={"values": [0.0, "nan", 2.0, 3.0]}, options={})
    p = _write_config(tmp_path / "c.json", **cfg)
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *args, **kwargs: pools.append(args))
    out = tmp_path / "o"
    assert main(["fixed", "--config", str(p), "--out", str(out), *runs]) == 2
    expected = "jump bands overlap" if case == "overlapping-bands" else "x0.values must be finite"
    assert f"config error: {expected}" in capsys.readouterr().err
    assert not out.exists() and pools == []


def test_repeated_edge_exits_2(tmp_path, capsys):
    (tmp_path / "g.edges").write_text("n 2\n0 1 1.0\n1 0 1.0\n0 1 5.0\n")
    p = _write_config(tmp_path / "c.json", mode="analyze", graph={"edge_list": "g.edges"})
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(p), "--out", str(out)]) == 2
    assert "config error: graph: edge (0, 1) is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("runs", [[], ["--runs", "2"]])
def test_simulation_value_error_exits_3(bundle, tmp_path, capsys, monkeypatch, runs):
    # a ValueError from inside a simulation is a runtime failure, not a config error
    def fail(*args, **kwargs):
        raise ValueError("step size collapsed to zero")

    monkeypatch.setattr(cli, "simulate_fixed", fail)  # forked batch workers inherit the patch
    assert main(["fixed", "--config", str(bundle / "double-star.json"),
                 "--out", str(tmp_path / "o"), *runs]) == 3
    assert "runtime error: step size collapsed to zero" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["null", "[]", "3", '"fixed"'])
def test_non_object_config_exits_2(tmp_path, capsys, text):
    p = tmp_path / "c.json"
    p.write_text(text)
    assert main(["fixed", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config must be a JSON object" in capsys.readouterr().err


def test_infinite_t_max_exits_2(bundle, tmp_path, capsys):
    # with t_max = inf, t_end - tiny is NaN and the step loop would never end
    assert main(["fixed", "--config", str(bundle / "fig4-nonconsensus.json"),
                 "--out", str(tmp_path / "o"), "--t-max", "inf"]) == 2
    assert "config error: t_max must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("override", [[], ["--t-max", "1"]])
def test_non_object_options_exits_2(bundle, tmp_path, capsys, override):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "mode": "fixed",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "function": {"preset": "unit-jump"},
        "x0": {"values": [0.0, 1.0, 2.0, 3.0]},
        "options": None,
    }))
    assert main(["fixed", "--config", str(p), "--out", str(tmp_path / "o"), *override]) == 2
    assert "config error: options must be an object" in capsys.readouterr().err


def test_seed_override_changes_x0(bundle, tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"o{seed}"
        main(["fixed", "--config", str(bundle / "double-star.json"),
              "--out", str(out), "--seed", str(seed), "--t-max", "1.0"])
        outs.append(read_summary(out)["x0"])
    assert outs[0] != outs[1]


def test_rerun_byte_identical(bundle, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["fixed", "--config", str(bundle / "double-star.json"),
                     "--out", str(out), "--t-max", "2.0"])
        assert code == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_runs_batch(bundle, tmp_path):
    out = tmp_path / "batch"
    code = main(["fixed", "--config", str(bundle / "double-star.json"),
                 "--out", str(out), "--t-max", "1.0", "--runs", "3"])
    assert code == 0
    agg = json.loads((out / "runs.json").read_text())
    assert agg["runs"] == 3
    assert len(agg["per_run"]) == 3
    seeds = [s["config"]["seed"] for s in agg["per_run"]]
    assert len(set(seeds)) == 3
    for idx in range(3):
        assert (out / f"run_{idx:03d}" / "trajectory.csv").exists()
        assert agg["per_run"][idx]["result"]["free_flight_steps"] > 0


def test_runs_batch_starts_a_worker_per_run(bundle, tmp_path, monkeypatch):
    workers = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert main(["fixed", "--config", str(bundle / "double-star.json"),
                 "--out", str(tmp_path / "batch"), "--t-max", "0.1", "--runs", "2"]) == 0
    assert workers == [2]


def _dumped_intervals(bundle, tmp_path, duration):
    """The intervals whose graphs a fig1 switching run dumps at stride 2, and those it reports."""
    cfg_path = tmp_path / "sw.json"
    cfg_path.write_text(json.dumps({
        "mode": "switching",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "durations": {"constant": duration},
        "function": {"preset": "unit-jump"},
        "x0": {"values": [-1.0, 1.0, 0.0, 0.0]},
        "options": {"t_max": 3.0},
        "graph_dump_stride": 2,
        "seed": 0,
    }))
    out = tmp_path / "out"
    assert main(["switching", "--config", str(cfg_path), "--out", str(out)]) == 0
    dumped = [int(p.stem.split("_")[1]) for p in sorted((out / "graphs").glob("*.edges"))]
    reported = [int(line.split(",")[0]) for line in (out / "intervals.csv").read_text().split()[1:]]
    return dumped, reported


def test_graph_dump_stride(bundle, tmp_path):
    # consensus comes at t = 0.82, inside interval 0 of the 3 that t_max spans
    assert _dumped_intervals(bundle, tmp_path, 1.0) == ([0], [0])


def test_graph_dump_stride_over_several_intervals(bundle, tmp_path):
    # 0.2-long intervals: the run takes 0..4 of the 15 up to t_max
    assert _dumped_intervals(bundle, tmp_path, 0.2) == ([0, 2, 4], [0, 1, 2, 3, 4])


def test_graph_dump_samples_the_schedule_once(bundle, tmp_path, monkeypatch):
    starts, schedule = [], switching._schedule

    def counted(*args):
        starts.append(args)
        yield from schedule(*args)

    monkeypatch.setattr(switching, "_schedule", counted)
    _dumped_intervals(bundle, tmp_path, 0.2)
    assert len(starts) == 1


def test_graph_dump_at_consensus_start_writes_interval_0(bundle, tmp_path):
    # a run that starts at consensus takes interval 0 and reports no interval
    p = tmp_path / "sw.json"
    p.write_text(json.dumps({
        "mode": "switching",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "durations": {"constant": 0.2},
        "function": {"preset": "unit-jump"},
        "x0": {"values": [0.5] * 4},
        "graph_dump_stride": 1,
    }))
    out = tmp_path / "out"
    assert main(["switching", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "intervals.csv").read_text() == "k,dt,eta,v_start,v_end,bound_rhs\n"
    assert [f.name for f in (out / "graphs").iterdir()] == ["interval_000000.edges"]
    assert (out / "graphs" / "interval_000000.edges").read_text() == (out / "graph.edges").read_text()


def test_switching_at_consensus_far_from_zero(bundle, tmp_path):
    # x0 -+ 1 rounds back to 1e308, so the separation domain widens to the neighbouring floats
    p = _write_config(tmp_path / "c.json", mode="switching",
                      graph={"edge_list": str(bundle / "graphs" / "fig1.edges")},
                      function={"preset": "unit-jump"}, x0={"values": [1e308] * 4},
                      durations={"constant": 0.5}, options={"t_max": 1.0})
    out = tmp_path / "o"
    assert main(["switching", "--config", str(p), "--out", str(out)]) == 0
    result = read_summary(out)["result"]
    assert result["consensus_reached"] is True and result["time_to_tol"] == 0.0


def test_blinking_bundled_reaches_consensus(bundle, tmp_path):
    out = tmp_path / "blink"
    code = main(["blinking", "--config", str(bundle / "blinking-50.json"), "--out", str(out)])
    assert code == 0
    s = read_summary(out)
    assert s["result"]["consensus_reached"] is True
    assert (out / "intervals.csv").exists()


def test_examples_listing(capsys):
    assert main(["examples", "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "fig1-analyze" in listed


def test_bundled_configs_run_unchanged(tmp_path):
    # every bundled config must execute from its materialized directory
    bundle = tmp_path / "bundle"
    write_bundled(bundle)
    cfg = load_config(bundle / "fig1-analyze.json")
    summary = run(cfg, tmp_path / "out")
    assert summary["graph"]["eta_hat"] == 1.0


@pytest.fixture
def cycle(tmp_path):
    """A 3-cycle edge list: strongly connected, so every mode that reads a graph accepts it."""
    path = tmp_path / "cycle.edges"
    path.write_text("n 3\n0 1 1.0\n1 2 1.0\n2 0 1.0\n")
    return path


@pytest.mark.parametrize("graph_name, x0", [
    ("fig1", [-1.0, 1.0, 0.0, 0.0]),
    ("fig4", [1.0, 1.0, 0.5, -0.5, -1.0, -1.0]),
])
def test_analyze_with_function_and_x0(bundle, tmp_path, graph_name, x0):
    # fig1 has a spanning tree whose root set is not every vertex: a prediction, no bound;
    # fig4 has no spanning tree: no prediction
    p = _write_config(tmp_path / "a.json", mode="analyze",
                      graph={"edge_list": str(bundle / "graphs" / f"{graph_name}.edges")},
                      function={"preset": "unit-jump"}, x0={"values": x0})
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(p), "--out", str(out)]) == 0
    s = read_summary(out)
    assert "finite_time_bound" not in s and "x0" not in s
    if graph_name == "fig1":
        assert isinstance(s["wra_predicted"], float)
    else:
        assert s["wra_predicted"] is None and s["graph"]["has_spanning_tree"] is False


_FIVE_VERTEX_EDGES = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 4, 1.5), (4, 0, 3.0), (0, 2, 0.75),
                      (3, 1, 2.5), (4, 2, 1.25)]


@pytest.mark.parametrize("mode", ["analyze", "fixed"])
def test_prediction_does_not_depend_on_the_weight_scale(tmp_path, mode):
    # at weights near 1e6 the left null vector's residual is 3.5e-10
    predicted = []
    for scale in (1.0, 1e6):
        edges = "".join(f"{a} {b} {w * scale!r}\n" for a, b, w in _FIVE_VERTEX_EDGES)
        (tmp_path / "g.edges").write_text("n 5\n" + edges)
        p = _write_config(tmp_path / "c.json", mode=mode, graph={"edge_list": "g.edges"},
                          function={"preset": "unit-jump"}, x0={"values": [1.0, -2.0, 0.5, 3.0, -1.0]},
                          options={"dt": 1e-9, "t_max": 1e-8})
        out = tmp_path / f"out{scale:g}"
        assert main([mode, "--config", str(p), "--out", str(out)]) == 0
        s = read_summary(out)
        predicted.append(s["wra_predicted"] if mode == "analyze" else s["result"]["wra_predicted"])
    assert predicted[1] == pytest.approx(predicted[0], rel=1e-9)


def test_analyze_finite_time_bound_on_a_cycle(cycle, tmp_path):
    p = _write_config(tmp_path / "a.json", mode="analyze", graph={"edge_list": cycle.name},
                      function={"preset": "unit-jump"}, x0={"values": [-1.0, 0.0, 1.0]})
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(p), "--out", str(out)]) == 0
    s = read_summary(out)
    assert s["wra_predicted"] == pytest.approx(0.0, abs=1e-15)
    assert s["finite_time_bound"] == pytest.approx(8 / 3)
    assert (out / "graph.edges").read_text() == cycle.read_text()


@pytest.mark.parametrize("section, value", [
    ("x0", {"values": [-1.0, 0.5, 2.0]}),
    ("function", {"preset": "nope"}),
])
def test_analyze_reads_each_optional_section_it_is_given(cycle, tmp_path, capsys, section, value):
    # x0 alone predicts the consensus value; the finite-time bound needs the function too
    p = _write_config(tmp_path / "a.json", mode="analyze", graph={"edge_list": cycle.name}, **{section: value})
    out = tmp_path / "out"
    if section == "x0":
        assert main(["analyze", "--config", str(p), "--out", str(out)]) == 0
        s = read_summary(out)
        assert s["wra_predicted"] == graph.wra(np.array(value["values"]), graph.read_edge_list(cycle))
        assert "finite_time_bound" not in s
    else:
        assert main(["analyze", "--config", str(p), "--out", str(out)]) == 2
        assert "config error: function: unknown preset 'nope'" in capsys.readouterr().err
        assert not out.exists()


def test_switching_summary_has_no_finite_time_bound(bundle, tmp_path):
    p = _write_config(tmp_path / "sw.json", mode="switching",
                      graph={"edge_list": str(bundle / "graphs" / "fig1.edges")},
                      durations={"constant": 0.2}, function={"preset": "unit-jump"},
                      x0={"values": [-1.0, 1.0, 0.0, 0.0]}, options={"t_max": 1.0},
                      delta=1.0, graph_dump_stride=2)
    out = tmp_path / "out"
    assert main(["switching", "--config", str(p), "--out", str(out)]) == 0
    s = read_summary(out)
    assert "finite_time_bound" not in s and "wra_predicted" not in s
    assert s["graph"]["delta_scrambling"] == {"1.0": True}
    assert (out / "graphs" / "interval_000000.edges").exists()


def test_examples_out_writes_configs_that_run(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["examples", "--out", str(bundle)]) == 0
    assert capsys.readouterr().out == f"wrote 4 configs to {bundle}\n"
    for name, raw in bundled_examples().items():
        out = tmp_path / name
        assert main([raw["mode"], "--config", str(bundle / f"{name}.json"), "--out", str(out),
                     "--t-max", "0.5"]) == 0
        assert (out / "summary.json").exists()


def test_no_config_argument_exits_2(capsys):
    assert main(["fixed"]) == 2
    assert "config error: --config is required" in capsys.readouterr().err


def test_runtime_error_exits_3(cycle, tmp_path, capsys):
    # dt = 10 on a Laplacian of norm 2 makes the identity protocol diverge
    p = _write_config(tmp_path / "c.json", mode="fixed", graph={"edge_list": cycle.name},
                      function={"preset": "identity"}, x0={"values": [-1.0, 0.0, 1.0]},
                      options={"dt": 10.0, "t_max": 1e5})
    assert main(["fixed", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "runtime error: state overflow" in capsys.readouterr().err


def test_default_out_dir(cycle, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = _write_config(tmp_path / "cyc.json", mode="analyze", graph={"edge_list": cycle.name})
    assert main(["analyze", "--config", str(p)]) == 0
    assert (tmp_path / "cyc.out" / "summary.json").exists()
    _write_config(p, mode="analyze", graph={"edge_list": cycle.name}, name="named")
    assert main(["analyze", "--config", str(p)]) == 0
    assert (tmp_path / "named.out" / "summary.json").exists()


def test_module_entry_point_exits_2_on_config_error(tmp_path):
    p = _write_config(tmp_path / "c.json", mode="analyze", graph={"edge_list": "missing.edges"})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "consensus_lab.cli", "analyze", "--config", str(p),
                           "--out", str(tmp_path / "o")], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "config error: edge list file not found" in proc.stderr

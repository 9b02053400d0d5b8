import json

import numpy as np
import pytest

from consensus_lab.bundled import bundled_examples, write_bundled
from consensus_lab.cli import ConfigError, ExperimentConfig, load_config, main, run


@pytest.fixture
def bundle(tmp_path):
    write_bundled(tmp_path / "bundle")
    return tmp_path / "bundle"


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


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


def test_graph_dump_stride(bundle, tmp_path):
    cfg_path = tmp_path / "sw.json"
    cfg_path.write_text(json.dumps({
        "mode": "switching",
        "graph": {"edge_list": str(bundle / "graphs" / "fig1.edges")},
        "durations": {"constant": 1.0},
        "function": {"preset": "unit-jump"},
        "x0": {"values": [-1.0, 1.0, 0.0, 0.0]},
        "options": {"t_max": 3.0},
        "graph_dump_stride": 2,
        "seed": 0,
    }))
    out = tmp_path / "out"
    assert main(["switching", "--config", str(cfg_path), "--out", str(out)]) == 0
    dumped = sorted((out / "graphs").glob("*.edges"))
    assert [p.name for p in dumped] == ["interval_000000.edges", "interval_000002.edges"]


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

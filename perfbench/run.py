"""consensus-lab benchmark: one workload, measured untraced or traced.

    python3 perfbench/run.py --workload bundled-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
round plus step counts and step probes. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def load_program():
    """Import consensus-lab from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "consensus_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no consensus-lab sources under {src}")
    sys.path.insert(0, str(src))
    lab = importlib.import_module("consensus_lab")
    if Path(lab.__file__).resolve().parent != (src / "consensus_lab").resolve():
        sys.exit(f"perfbench: imported consensus_lab from {lab.__file__}, not from {src}")
    for module in ("graph", "protocol", "dynamics", "switching", "bundled", "cli"):
        importlib.import_module(f"consensus_lab.{module}")
    return lab


def time_setup(args) -> float:
    """Median wall time of a fresh process that imports the program and materializes inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child (pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_rounds(wl, rec, out: Path, seconds: float) -> list[float]:
    """Whole rounds until ``seconds`` have passed; returns each round's summed operation times."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(wl.round(rec, out / f"round-{len(rounds)}"))
    return rounds


def layer_metrics(totals: dict, counts, probe_us: dict, overhead_s: float,
                  untraced_s: float, spans: int) -> dict[str, tuple[float, str]]:
    def t(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    integrate_self = t("dynamics.simulate_fixed", "self_s") + t("switching.simulate_switching", "self_s")
    traced_steps = t("dynamics.simulate_fixed", "count") + t("switching.simulate_switching", "count")
    scr_calls = t("graph.scrambling_coefficient", "calls")
    m = {
        "dynamics.steps": (counts.steps, "count"),
        "dynamics.steps_fixed_point": (counts.by_class["fixed_point"], "count"),
        "dynamics.steps_free": (counts.by_class["free"], "count"),
        "dynamics.steps_band_capped": (counts.by_class["band_capped"], "count"),
        "dynamics.steps_sliding": (counts.by_class["sliding"], "count"),
        "dynamics.fallback_steps": (counts.fallback, "count"),
    }
    for name in probe_us:
        m[f"dynamics.step_us.{name}"] = (probe_us[name], "us")
    m.update({
        "dynamics.simulate_fixed.self_s": (t("dynamics.simulate_fixed", "self_s"), "s"),
        "dynamics.us_per_step": (1e6 * integrate_self / traced_steps if traced_steps else 0.0, "us"),
        "dynamics.to_csv_s": (t("dynamics.Trajectory.to_csv"), "s"),
        "dynamics.csv_rows": (t("dynamics.Trajectory.to_csv", "count"), "count"),
        "switching.simulate_switching.self_s": (t("switching.simulate_switching", "self_s"), "s"),
        "switching.sample_schedule_s": (t("switching.sample_schedule"), "s"),
        "switching.intervals": (t("switching.sample_schedule", "count"), "count"),
        "switching.write_interval_reports_csv_s": (t("switching.write_interval_reports_csv"), "s"),
        "switching.estimate_expected_eta.self_s": (t("switching.estimate_expected_eta", "self_s"), "s"),
        "switching.sample_blinking_s": (t("switching.sample_blinking"), "s"),
        "graph.scrambling_coefficient_s": (t("graph.scrambling_coefficient"), "s"),
        "graph.scrambling_coefficient_calls": (scr_calls, "count"),
        "graph.scrambling_coefficient_us": (
            1e6 * t("graph.scrambling_coefficient") / scr_calls if scr_calls else 0.0, "us"),
        "graph.laplacian_s": (t("graph.laplacian"), "s"),
        "graph.is_delta_scrambling_s": (t("graph.is_delta_scrambling"), "s"),
        "graph.root_partition_s": (t("graph.root_partition"), "s"),
        "graph.wra_s": (t("graph.wra"), "s"),
        "protocol.validated_s": (t("protocol.validated"), "s"),
        "protocol.epsilon_separation_s": (t("protocol.epsilon_separation"), "s"),
        "cli.run.self_s": (t("cli.run", "self_s"), "s"),
        "cli.run_batch_s": (t("cli.run_batch"), "s"),
        "cli.load_config_s": (t("cli.load_config"), "s"),
        "bundled.write_bundled_s": (t("bundled.write_bundled"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_pct": (100.0 * overhead_s / untraced_s, "%"),
        "trace.spans": (spans, "count"),
    })
    return m


def traced(lab, wl, rec, work: Path, rounds: list[float]) -> tuple[dict, list[str]]:
    from steps import PROBES, count, probe
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed(lab):
        wl.materialize(work / "traced-inputs")
        traced_round = wl.round(rec, work / "traced-round")
        wl.attribute(rec, work / "attribution")
    tracer.dump(ROOT / ".perfbench-out" / f"spans-{wl.name}-seed{wl.seed}.json")
    counts = count(lab, wl.simulations())
    probe_us = {name: probe(lab, name, counts.probes[name], counts.mismatches)
                if name in counts.probes else 0.0 for name in PROBES}
    untraced = statistics.median(rounds)
    metrics = layer_metrics(tracer.totals(), counts, probe_us, traced_round - untraced, untraced,
                            len(tracer.spans))
    return metrics, counts.mismatches


def main(argv=None) -> int:
    from workloads import WORKLOADS, Recorder

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lab = load_program()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](lab, args.seed)
        wl.materialize(work / "inputs")
        if args.setup_only:
            return 0
        setup_s = None if args.trace else time_setup(args)
        rec = Recorder()
        rounds = run_rounds(wl, rec, work, args.seconds)
        wl.verify_once(rec)
        if args.trace:
            metrics, mismatches = traced(lab, wl, rec, work, rounds)
            rec.problems += mismatches
        else:
            metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"),
                       "round_norm_s": (wl.round_norm_s(rec), "s")}
            print(json.dumps({"detail": wl.detail(rec), "round_s": wl.round_s(rec),
                              "reference_s": min(rec.reference), "rounds": rounds}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in rec.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())

"""Smoke runs of the benchmark's own output checks on the program in this checkout."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fixed-sweep", "bundled-cli", "blinking-mc"])
def test_benchmark_checks_pass(workload):
    # a traced round also runs the step probes, the fallback recount and the
    # weighted-root-average and frozen-source oracles
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0, proc.stderr

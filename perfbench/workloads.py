"""The three workloads: what one round runs, and how its outputs are checked.

A round is the same list of operations every time, so a run that repeats
rounds attempts a whole multiple of them. Only the calls into the program
are timed; the checks run between them, untimed, against ``oracles``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import shutil
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
from steps import Sim


REFERENCE_X = np.linspace(-1.0, 1.0, 6)
REFERENCE_S = 0.02  # about the fastest reference_loop() on the machine of the README figures


def reference_loop() -> float:
    """Seconds for a fixed loop of tiny-array numpy reductions, the integrator's commonest call."""
    t0 = perf_counter()
    for _ in range(10_000):
        REFERENCE_X.max() - REFERENCE_X.min()
    return perf_counter() - t0


class Recorder:
    """Attempted and failed operations, wall times per operation, and failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.reference: list[float] = []
        self.problems: list[str] = []

    def op(self, op_id: str, fn, *args, weight: int = 1):
        """Call ``fn(*args)`` as ``weight`` operations; returns (result, seconds) or (None, 0.0)."""
        self.reference.append(reference_loop())
        self.attempted += weight
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += weight
            traceback.print_exc(file=sys.stderr)
            return None, 0.0
        elapsed = perf_counter() - t0
        self.times[op_id].append(elapsed)
        return out, elapsed

    def best(self, op_id: str) -> float:
        """Fastest of an operation's repeats.

        On a shared virtual machine the CPU speed can swing by 2x in phases of
        1-3 s; the fastest repeat then spreads far less from run to run than
        the median or the mean of the repeats.
        """
        return min(self.times[op_id])

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name in ("trajectory.csv", "intervals.csv"):
        if (directory / name).exists():
            h.update((directory / name).read_bytes())
    return h.hexdigest()


def _check_hull(rec: Recorder, label: str, x: np.ndarray, x0) -> None:
    x0 = np.asarray(x0)
    tol = 1e-9 * max(1.0, float(np.abs(x0).max()))
    rec.check(bool(x.min() >= x0.min() - tol and x.max() <= x0.max() + tol),
              f"{label}: state left the hull of x0 [{x0.min()}, {x0.max()}]: "
              f"[{x.min()}, {x.max()}]")


def _check_frozen_sources(rec: Recorder, label: str, w, x0, x_end, spread_end) -> None:
    """No spanning tree: each source group keeps its value, so V stays >= |a - c|."""
    sources = oracles.source_components(w)
    rec.check(len(sources) >= 2, f"{label}: fewer than two source components")
    x0 = np.asarray(x0)
    for comp in sources:
        rec.check(bool(np.abs(x_end[comp] - x0[comp]).max() <= 1e-6),
                  f"{label}: source group {comp} moved")
    values = [float(x0[c[0]]) for c in sources]
    rec.check(spread_end >= max(values) - min(values) - 1e-3,
              f"{label}: final disagreement {spread_end} below the source gap")


def _check_switching_run(rec: Recorder, label: str, out: Path, summary: dict, dt: float) -> None:
    rec.check(bool(summary["result"]["consensus_reached"]), f"{label}: no consensus")
    traj = _read_csv(out / "trajectory.csv")
    _check_hull(rec, label, traj[:, 1:-1], summary["x0"])
    rows = _read_csv(out / "intervals.csv")
    rec.check(len(rows) == summary["switching"]["n_intervals"], f"{label}: interval rows")
    v_end, bound_rhs = rows[:, 4], rows[:, 5]
    bad = np.flatnonzero(v_end > bound_rhs + 10 * dt)
    rec.check(bad.size == 0, f"{label}: decay bound broken in intervals {rows[bad, 0]}")


def _sim_from_summary(lab, cfg, summary: dict, base: Path) -> Sim:
    """The simulation ``cli.run`` made for ``cfg``, rebuilt from public parts."""
    common = dict(g=lab.protocol.from_config(cfg.function), x0=np.array(summary["x0"]),
                  opts=cfg.sim_options(), steps=summary["result"]["steps"],
                  fallback_steps=summary["result"]["fallback_steps"])
    if cfg.mode == "fixed":
        return Sim(graph=lab.graph.read_edge_list(base / cfg.graph["edge_list"]), **common)
    model = lab.switching.BlinkingModel(**cfg.graph["blinking"])
    proc = lab.switching.process_for_blinking(
        model, lab.switching.UniformDuration(*cfg.durations["uniform"]))
    return Sim(proc=proc, seed=summary["switching"]["schedule_seed"], delta=cfg.delta, **common)


class Workload:
    name = ""
    # timed operation -> times it runs per round
    per_round: dict[str, int] = {}
    # operations that run in the program's worker processes, whose CPU the
    # reference loop, timed in this process, does not measure
    pooled: tuple[str, ...] = ()

    def __init__(self, lab, seed: int) -> None:
        self.lab = lab
        self.seed = seed
        self.digests: dict[str, str] = {}

    def materialize(self, inputs: Path) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder, out: Path) -> float:
        """Run one round; returns the summed wall time of its timed operations."""
        raise NotImplementedError

    def round_s(self, rec: Recorder) -> float:
        """One round's time, each operation counted at its fastest repeat."""
        return sum(n * rec.best(op) for op, n in self.per_round.items())

    def round_norm_s(self, rec: Recorder) -> float:
        """``round_s`` with every operation run in this process scaled to the CPU speed
        at which the reference loop takes REFERENCE_S at best."""
        scale = REFERENCE_S / min(rec.reference)
        return sum(n * rec.best(op) * (1.0 if op in self.pooled else scale)
                   for op, n in self.per_round.items())

    def verify_once(self, rec: Recorder) -> None:
        """Untimed checks that need no round output."""

    def attribute(self, rec: Recorder, out: Path) -> None:
        """Extra traced work that attributes layer time the round hides (pool workers)."""

    def simulations(self) -> list[Sim]:
        raise NotImplementedError

    def detail(self, rec: Recorder) -> dict[str, float]:
        """Per-kind figures, printed for readers beside the end-to-end metrics."""
        raise NotImplementedError

    def _same_bytes(self, rec: Recorder, key: str, out: Path) -> None:
        digest = _digest(out)
        rec.check(self.digests.setdefault(key, digest) == digest,
                  f"{key}: CSVs differ between repeated runs of one config")


class BundledCli(Workload):
    """Every bundled config through ``cli.run``, CSVs and summary written."""

    name = "bundled-cli"
    # fig4-nonconsensus runs with t_max = 10 (--t-max 10 on the command line):
    # 10,001 steps in about 1 s instead of 100,001 in 10 to 15 s, still
    # sliding and 96% exact fixed points. Every operation then takes about a
    # second, so a run repeats each a few times and its fastest repeat is
    # steady. fig1-analyze takes about 2 ms: it is run and checked, not timed.
    FIG4_T_MAX = 10.0
    SEQUENCE = ("fig1-analyze", "double-star", "fig4-nonconsensus", "blinking-50",
                "double-star", "fig4-nonconsensus")
    per_round = dict(Counter(name for name in SEQUENCE if name != "fig1-analyze"))

    def materialize(self, inputs: Path) -> None:
        self.bundle = inputs
        paths = self.lab.bundled.write_bundled(inputs)
        self.configs = {p.stem: self.lab.cli.load_config(p) for p in paths}
        self.configs["fig4-nonconsensus"] = self.lab.cli.load_config(
            inputs / "fig4-nonconsensus.json", overrides={"t_max": self.FIG4_T_MAX})
        self.last: dict[str, dict] = {}

    def round(self, rec: Recorder, out: Path) -> float:
        total = 0.0
        for i, name in enumerate(self.SEQUENCE):
            d = out / f"{i:02d}-{name}"
            summary, elapsed = rec.op(name, self.lab.cli.run, self.configs[name], d)
            if name in self.per_round:
                total += elapsed
            if summary is not None:
                self._check(rec, name, summary, d)
                self.last[name] = summary
            shutil.rmtree(d, ignore_errors=True)
        return total

    def _check(self, rec: Recorder, name: str, summary: dict, out: Path) -> None:
        cfg = self.configs[name]
        self._same_bytes(rec, name, out)
        if cfg.mode == "blinking":
            _check_switching_run(rec, name, out, summary, cfg.sim_options().dt)
            return
        w = oracles.read_edges(self.bundle / cfg.graph["edge_list"])
        roots = oracles.root_set(w)
        report = summary["graph"]
        rec.check(report["has_spanning_tree"] == bool(roots), f"{name}: spanning tree")
        if roots:
            rec.check(report["s1"] == roots, f"{name}: root set {report['s1']} != {roots}")
        if cfg.mode == "analyze":
            eta = oracles.eta(w)
            rec.check(abs(report["eta_hat"] - eta) <= 1e-12, f"{name}: eta_hat")
            rec.check(report["scrambling"] == (eta > 0), f"{name}: scrambling verdict")
            for delta, verdict in report["delta_scrambling"].items():
                kept = np.where(w >= float(delta), w, 0.0)
                rec.check(verdict == (oracles.eta(kept) > 0), f"{name}: {delta}-scrambling")
            return
        result, x0 = summary["result"], summary["x0"]
        traj = _read_csv(out / "trajectory.csv")
        _check_hull(rec, name, traj[:, 1:-1], x0)
        rec.check(traj[-1, -1] == result["final_disagreement"], f"{name}: final V")
        if roots:
            expected = oracles.wra(w, x0)
            rec.check(bool(result["consensus_reached"]), f"{name}: no consensus")
            rec.check(abs(result["consensus_value"] - expected) <= 1e-3,
                      f"{name}: consensus value {result['consensus_value']} vs WRA {expected}")
            rec.check(abs(result["wra_predicted"] - expected) <= 1e-9, f"{name}: predicted WRA")
        else:
            rec.check(not result["consensus_reached"], f"{name}: consensus without a tree")
            _check_frozen_sources(rec, name, w, x0, traj[-1, 1:-1], traj[-1, -1])

    def simulations(self) -> list[Sim]:
        return [_sim_from_summary(self.lab, self.configs[n], self.last[n], self.bundle)
                for n in self.per_round]

    def detail(self, rec: Recorder) -> dict[str, float]:
        return {f"run_s.{n}": rec.best(n) for n in self.per_round}


@dataclasses.dataclass
class SweepCase:
    tree: bool
    w: np.ndarray
    graph: object
    x0: np.ndarray
    opts: object
    stride: int


class FixedSweep(Workload):
    """Criterion-4-style sweep: random digraphs through ``dynamics.simulate_fixed``."""

    name = "fixed-sweep"
    # n = 3..6, each with one graph with and one without a spanning tree,
    # the densities of criterion 4 taken in turn, drawn once from a fixed
    # stream. The seed draws x0 only: whether a treeless graph slides decides
    # whether its run costs 0.6 s or 3 s, and a graph set drawn anew per seed
    # would swing the round by more than any bound.
    GRAPH_SEED = 2024
    CELLS = [(n, p, tree) for (n, tree), p in
             zip(itertools.product((3, 4, 5, 6), (True, False)), itertools.cycle((0.2, 0.35, 0.5)))]
    per_round = {f"case-{i}": 1 for i in range(len(CELLS))}

    def materialize(self, inputs: Path) -> None:
        lab = self.lab
        self.g = lab.protocol.unit_jump()
        graphs = np.random.default_rng(self.GRAPH_SEED)
        rng = np.random.default_rng(self.seed)
        self.cases: list[SweepCase] = []
        for n, p, tree in self.CELLS:
            while True:
                w = (graphs.random((n, n)) < p).astype(float)
                np.fill_diagonal(w, 0.0)
                if bool(oracles.root_set(w)) == tree:
                    break
            if tree:
                x0 = rng.uniform(-5.0, 5.0, n)
                opts = lab.dynamics.SimOptions(dt=2e-3, t_max=200.0, consensus_tol=1e-4)
            else:  # adversarial: the first source group at +1, the others at -1
                x0 = rng.uniform(-1.0, 1.0, n)
                for i, comp in enumerate(oracles.source_components(w)):
                    x0[comp] = 1.0 if i == 0 else -1.0
                opts = lab.dynamics.SimOptions(dt=1e-2, t_max=200.0, consensus_tol=1e-4)
            self.cases.append(SweepCase(tree, w, lab.graph.WeightedDigraph(n, w), x0, opts,
                                        50 if tree else 200))
        self.results: list = [None] * len(self.cases)

    def round(self, rec: Recorder, out: Path) -> float:
        total = 0.0
        for i, case in enumerate(self.cases):
            res, elapsed = rec.op(f"case-{i}", self.lab.dynamics.simulate_fixed, case.graph,
                                  self.g, case.x0, case.opts, case.stride)
            total += elapsed
            if res is not None:
                self._check(rec, f"sweep case {i}", case, res)
                self.results[i] = res
        return total

    def _check(self, rec: Recorder, label: str, case: SweepCase, res) -> None:
        s, traj = res.summary, res.trajectory
        _check_hull(rec, label, traj.x, case.x0)
        if case.tree:
            expected = oracles.wra(case.w, case.x0)
            rec.check(s.consensus_reached, f"{label}: no consensus on a spanning tree")
            rec.check(s.consensus_reached and abs(s.consensus_value - expected) <= 1e-3,
                      f"{label}: consensus value {s.consensus_value} vs WRA {expected}")
            rec.check(s.wra_predicted is not None and abs(s.wra_predicted - expected) <= 1e-9,
                      f"{label}: predicted WRA {s.wra_predicted} vs {expected}")
        else:
            rec.check(not s.consensus_reached, f"{label}: consensus without a spanning tree")
            rec.check(s.wra_predicted is None, f"{label}: WRA predicted without a tree")
            _check_frozen_sources(rec, label, case.w, case.x0, traj.x[-1], s.final_disagreement)

    def simulations(self) -> list[Sim]:
        return [Sim(g=self.g, x0=c.x0, opts=c.opts, steps=r.summary.steps,
                    fallback_steps=r.summary.fallback_steps, graph=c.graph)
                for c, r in zip(self.cases, self.results)]

    def detail(self, rec: Recorder) -> dict[str, float]:
        out = {}
        for kind, tree in (("tree", True), ("treeless", False)):
            ids = [f"case-{i}" for i, c in enumerate(self.cases) if c.tree == tree]
            out[f"{kind}_runs_per_s"] = len(ids) / sum(rec.best(i) for i in ids)
        return out


class BlinkingMc(Workload):
    """Criterion-7 Monte Carlo: a ``--runs`` batch of blinking-50 plus an expected-eta run."""

    name = "blinking-mc"
    # The batch keeps the bundled config's own seed, as a user runs it: how
    # many sliding and fallback steps a schedule brings moves a run's cost by
    # a third, and a batch drawn anew per seed would swing the round by more
    # than any bound. The seed draws the expected-eta samples. A batch of 4
    # on 2 workers takes about 3 s, so a run repeats it several times.
    RUNS = 2
    ETA_SAMPLES = 1000
    per_round = {"blinking": 1, "eta": 1}
    pooled = ("blinking",)
    # untimed cross-check of estimate_expected_eta against exhaustive enumeration
    SMALL = dict(n=4, K=0, p=0.3, w=0.5)
    SMALL_SAMPLES = 20_000

    def materialize(self, inputs: Path) -> None:
        cli = self.lab.cli
        self.lab.bundled.write_bundled(inputs)
        self.batch_cfg = cli.load_config(inputs / "blinking-50.json", overrides={"runs": self.RUNS})
        eta_path = inputs / "expected-eta.json"
        eta_path.write_text(json.dumps({
            "mode": "expected-eta", "graph": {"blinking": self.batch_cfg.graph["blinking"]},
            "n_samples": self.ETA_SAMPLES, "seed": self.seed}) + "\n")
        self.eta_cfg = cli.load_config(eta_path)

    def round(self, rec: Recorder, out: Path) -> float:
        cli = self.lab.cli
        agg, t_batch = rec.op("blinking", cli.run_batch, self.batch_cfg, out / "batch",
                              weight=self.RUNS)
        if agg is not None:
            self._check_batch(rec, agg, out / "batch")
            self.batch = agg
        est, t_eta = rec.op("eta", cli.run, self.eta_cfg, out / "eta")
        if est is not None:
            self._check_eta(rec, est["expected_eta"])
        shutil.rmtree(out, ignore_errors=True)
        return t_batch + t_eta

    def _check_batch(self, rec: Recorder, agg: dict, out: Path) -> None:
        rec.check(agg["consensus_reached_count"] == self.RUNS, "batch: consensus count")
        dt = self.batch_cfg.sim_options().dt
        for i, summary in enumerate(agg["per_run"]):
            run_dir = out / f"run_{i:03d}"
            _check_switching_run(rec, f"batch run {i}", run_dir, summary, dt)
            self._same_bytes(rec, f"batch run {i}", run_dir)

    def _check_eta(self, rec: Recorder, est: dict) -> None:
        m = self.batch_cfg.graph["blinking"]
        ceiling = oracles.blinking_eta_ceiling(m["n"], m["p"], m["w"]) + 3 * est["std_error"]
        rec.check(est["n_samples"] == self.ETA_SAMPLES, "expected-eta: sample count")
        rec.check(0.0 <= est["mean"] <= ceiling,
                  f"expected-eta: mean {est['mean']} outside [0, {ceiling}]")

    def verify_once(self, rec: Recorder) -> None:
        sw = self.lab.switching
        sampler = sw.BlinkingSampler(sw.BlinkingModel(**self.SMALL))
        est = sw.estimate_expected_eta(sampler, self.SMALL_SAMPLES, self.seed)
        exact = oracles.blinking_exact_eta(self.SMALL["n"], self.SMALL["p"], self.SMALL["w"])
        rec.check(abs(est.mean - exact) <= 4 * est.std_error,
                  f"expected-eta on {self.SMALL}: {est.mean} +- {est.std_error} vs exact {exact}")

    def attribute(self, rec: Recorder, out: Path) -> None:
        """The batch's runs again, one after another in this process, where spans are recorded."""
        for i, summary in enumerate(self.batch["per_run"]):
            cfg = dataclasses.replace(self.batch_cfg, seed=summary["seed"], runs=1)
            d = out / f"serial-{i}"
            if rec.op("serial", self.lab.cli.run, cfg, d)[0] is not None:
                self._same_bytes(rec, f"batch run {i}", d)
            shutil.rmtree(d, ignore_errors=True)

    def simulations(self) -> list[Sim]:
        return [_sim_from_summary(self.lab, self.batch_cfg, s, Path("."))
                for s in self.batch["per_run"]]

    def detail(self, rec: Recorder) -> dict[str, float]:
        return {"blinking_runs_per_s": self.RUNS / rec.best("blinking"),
                "eta_samples_per_s": self.ETA_SAMPLES / rec.best("eta")}


WORKLOADS = {w.name: w for w in (BundledCli, FixedSweep, BlinkingMc)}

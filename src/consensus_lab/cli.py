"""Config-driven experiment runner.

Usage::

    consensus-lab <mode> --config experiment.json [--seed S] [--out DIR]
                         [--t-max T] [--runs N]
    consensus-lab examples --out DIR   # materialize the bundled configs

Modes: analyze, fixed, switching, blinking, expected-eta. A run writes
``summary.json`` plus, depending on the mode, ``trajectory.csv``,
``intervals.csv``, a ``graph.edges`` echo and ``graphs/`` interval dumps.
Exit codes: 0 success, 2 configuration error, 3 runtime error.

``run`` parses, then runs. Only its parse phase raises ConfigError: it reads every section the
mode needs through ``_read``, which turns a reader's KeyError, TypeError, AttributeError or
ValueError into a ConfigError naming the section. The run phase makes the output directory and
writes each output once, so a config error writes nothing; a simulation's ValueError exits 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bundled
from .dynamics import RunSummary, SimOptions, band_edges, finite_time_bound, simulate_fixed
from .graph import (
    WeightedDigraph,
    is_delta_scrambling,
    laplacian,
    read_edge_list,
    root_partition,
    scrambling_coefficient,
    wra,
    write_edge_list,
)
from .protocol import from_config as function_from_config
from .switching import (
    BlinkingModel,
    BlinkingSampler,
    ConstantDuration,
    FixedGraphSampler,
    ScheduleInterval,
    SwitchingProcess,
    UniformDuration,
    estimate_expected_eta,
    simulate_switching,
    write_interval_reports_csv,
)

MODES = ("analyze", "fixed", "switching", "blinking", "expected-eta")

_MODE_REQUIRES = {
    "analyze": ("graph",),
    "fixed": ("graph", "function", "x0"),
    "switching": ("graph", "durations", "function", "x0"),
    "blinking": ("graph", "durations", "function", "x0"),
    "expected-eta": ("graph",),
}


# smallest accepted value of each integer field; n_samples >= 2 for a standard error
_INT_MINIMA = {"n_samples": 2, "runs": 1, "stride": 1, "graph_dump_stride": 0, "seed": 0}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    mode: str
    graph: dict | None = None
    function: dict | None = None
    x0: dict | None = None
    options: dict = field(default_factory=dict)
    durations: dict | None = None
    seed: int = 0
    out: str | None = None
    stride: int = 10
    delta: float | None = None
    n_samples: int = 10_000
    runs: int = 1
    graph_dump_stride: int = 0
    name: str | None = None
    base_dir: str = "."

    def sim_options(self) -> SimOptions:
        try:
            return SimOptions(**self.options)
        except TypeError as exc:
            raise ConfigError(f"unknown simulation option: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# base_dir is where the config file lies, never a key inside it
_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"base_dir"}


def load_config(path: str | Path, mode: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if not isinstance(raw.get("options", {}), dict):
        raise ConfigError(f"options must be an object of simulation options, got {raw['options']!r}")
    for key in ("out", "name"):
        if not isinstance(raw.get(key, ""), str | None):
            raise ConfigError(f"{key} must be null or a string, got {raw[key]!r}")
    for key, value in (overrides or {}).items():
        if value is not None:
            if key == "t_max":
                raw.setdefault("options", {})
                raw["options"]["t_max"] = value
            else:
                raw[key] = value
    cfg = _read("mode", ExperimentConfig, **raw, base_dir=str(path.parent))
    if mode is not None and cfg.mode != mode:
        raise ConfigError(f"config declares mode {cfg.mode!r} but {mode!r} was requested")
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {MODES}")
    missing = [k for k in _MODE_REQUIRES[cfg.mode] if getattr(cfg, k) in (None, {})]
    if missing:
        raise ConfigError(f"mode {cfg.mode!r} needs config fields: {missing}")
    for key, least in _INT_MINIMA.items():
        value = getattr(cfg, key)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    if cfg.delta is not None and (isinstance(cfg.delta, bool) or not isinstance(cfg.delta, (int, float))
                                  or not 0 < cfg.delta < float("inf")):
        raise ConfigError(f"delta must be null or a finite positive number, got {cfg.delta!r}")
    return cfg


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _read(key: str, reader, *args, **kwargs):
    """``reader(*args, **kwargs)``, the reader of config section ``key``. A KeyError, TypeError,
    AttributeError or ValueError it raises becomes a ConfigError naming ``key``."""
    try:
        return reader(*args, **kwargs)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{key}: missing field {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _graph(cfg: ExperimentConfig) -> WeightedDigraph | BlinkingModel:
    """The config's graph: its blinking model, or the graph its edge list holds."""
    spec = cfg.graph
    if cfg.mode == "blinking" or (cfg.mode == "expected-eta" and "blinking" in spec):
        return BlinkingModel(**spec["blinking"])
    if not isinstance(spec["edge_list"], str):
        raise TypeError(f"edge_list must be a path, got {spec['edge_list']!r}")
    path = Path(cfg.base_dir) / spec["edge_list"]
    if not path.exists():
        raise ConfigError(f"edge list file not found: {path}")
    graph = read_edge_list(path)
    # the scrambling coefficient of an interval, which these modes read, needs two vertices
    if graph.n < 2 and cfg.mode in ("switching", "expected-eta"):
        raise ConfigError(f"mode {cfg.mode!r} needs at least two vertices, the graph has {graph.n}")
    return graph


def _floats(name: str, values) -> list[float]:
    """``values`` as floats; a ConfigError naming the field ``name`` if one is not a number."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numbers, got {values!r}") from None


def _durations(cfg: ExperimentConfig):
    spec = cfg.durations
    if "constant" in spec:
        value, = _floats("durations.constant", [spec["constant"]])
        if not value > 0:  # NaN included
            raise ConfigError("constant duration must be positive")
        return ConstantDuration(value)
    if "uniform" in spec:
        bounds = _floats("durations.uniform", spec["uniform"])
        if len(bounds) != 2:
            raise ConfigError(f"durations.uniform needs two values [lo, hi], got {spec['uniform']!r}")
        lo, hi = bounds
        if not 0 <= lo < hi < float("inf"):
            raise ConfigError("uniform duration needs 0 <= lo < hi < inf")
        return UniformDuration(lo, hi)
    raise ConfigError("durations must be {'constant': v} or {'uniform': [lo, hi]}")


def _initial_state(cfg: ExperimentConfig, n: int) -> np.ndarray:
    spec = cfg.x0
    if "values" in spec:
        x0 = np.asarray(_floats("x0.values", spec["values"]))
        if x0.shape != (n,):
            raise ConfigError(f"x0 has {x0.size} entries but the graph has {n} vertices")
        if not np.isfinite(x0).all():
            raise ConfigError(f"x0.values must be finite, got {spec['values']!r}")
        return x0
    if "uniform" in spec:
        bounds = spec["uniform"]
        if not isinstance(bounds, dict) or not {"lo", "hi"} <= bounds.keys():
            raise ConfigError(f"x0.uniform needs 'lo' and 'hi', got {bounds!r}")
        lo, hi = _floats("x0.uniform", [bounds["lo"], bounds["hi"]])
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ConfigError("x0 uniform range needs lo < hi, with hi - lo finite")
        rng = np.random.default_rng(_derived_seed(cfg.seed, 0))
        return rng.uniform(lo, hi, size=n)
    raise ConfigError("x0 must be {'values': [...]} or {'uniform': {'lo': a, 'hi': b}}")


def _graph_report(graph: WeightedDigraph, delta: float | None) -> dict:
    lap = laplacian(graph)
    eta = scrambling_coefficient(-lap) if graph.n >= 2 else None
    part = root_partition(graph)
    report = {
        "n": graph.n,
        "edge_count": len(graph.edges()),
        "has_spanning_tree": part is not None,
        "s1": list(part.s1) if part else None,
        "s2": list(part.s2) if part else None,
        "eta_hat": eta,
        "scrambling": (eta > 0) if eta is not None else None,
    }
    if delta is not None:
        verdict = is_delta_scrambling(graph, delta) if graph.n >= 2 else None
        report["delta_scrambling"] = {str(delta): verdict}
    return report


def _block(obj, cls: type | None = None) -> dict:
    """One ``summary.json`` block: the fields of ``cls`` (default: the class of ``obj``) and
    the properties of ``cls``, nested dataclasses as dicts. Taking the properties from ``cls``
    keeps a subclass's derived values out of the block of its base class."""
    cls = cls or type(obj)
    names = [f.name for f in dataclasses.fields(cls)]
    names += [name for name in dir(cls) if isinstance(getattr(cls, name), property)]
    block = {name: getattr(obj, name) for name in names}
    return {k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for k, v in block.items()}


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(cfg: ExperimentConfig, config_path: Path | None) -> Path:
    if cfg.out:
        return Path(cfg.out)
    stem = cfg.name or (config_path.stem if config_path else cfg.mode)
    return Path(f"{stem}.out")


def _parse(cfg: ExperimentConfig) -> tuple:
    """The parse phase of ``run``: ``(cfg, opts, g, graph, durations, x0)``, None where the mode
    reads no such section; ``analyze`` reads ``function`` and ``x0`` when they are given. It
    raises every ConfigError, jump bands that overlap included."""
    needs = _MODE_REQUIRES[cfg.mode]
    simulated = "function" in needs
    analyze = cfg.mode == "analyze"
    opts = cfg.sim_options() if simulated else None
    g = x0 = durations = None
    if simulated or (analyze and cfg.function):
        g = _read("function", function_from_config, cfg.function)
    if simulated:
        try:
            band_edges(g.breakpoint_xs, opts.band)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    graph = _read("graph", _graph, cfg)
    if "durations" in needs:
        durations = _read("durations", _durations, cfg)
    if simulated or (analyze and cfg.x0):
        x0 = _read("x0", _initial_state, cfg, graph.n)
    return cfg, opts, g, graph, durations, x0


def _execute(sections: tuple, out_dir: str | Path) -> dict:
    """The run phase of ``run`` on the sections ``_parse`` read; returns the summary dict written."""
    cfg, opts, g, graph, durations, x0 = sections
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "base_dir"}
    summary = {"mode": cfg.mode, "seed": cfg.seed, "config": config, "defaults": _block(SimOptions())}
    sampler = BlinkingSampler(graph) if isinstance(graph, BlinkingModel) else FixedGraphSampler(graph)
    if cfg.mode == "expected-eta":
        est = estimate_expected_eta(sampler, cfg.n_samples, _derived_seed(cfg.seed, 2))
        summary["expected_eta"] = _block(est)
    elif cfg.mode == "blinking":
        summary["blinking"] = _block(graph)
    else:
        report = summary["graph"] = _graph_report(graph, cfg.delta)
        write_edge_list(graph, out / "graph.edges")
        if cfg.mode == "analyze" and x0 is not None:
            summary["wra_predicted"] = wra(x0, graph) if report["has_spanning_tree"] else None
        # s2 is [] exactly when the graph has a spanning tree and is strongly connected
        if cfg.mode != "switching" and g is not None and x0 is not None and report["s2"] == []:
            summary["finite_time_bound"] = finite_time_bound(graph, g, x0)
    if opts is not None:
        summary["x0"] = [float(v) for v in x0]

        def dump(interval: ScheduleInterval) -> None:
            if interval.k % cfg.graph_dump_stride == 0:
                (out / "graphs").mkdir(exist_ok=True)
                write_edge_list(interval.graph, out / "graphs" / f"interval_{interval.k:06d}.edges")

        if cfg.mode == "fixed":
            result = simulate_fixed(graph, g, x0, opts, record_stride=cfg.stride)
            summary["result"] = _block(result.summary)
        else:
            result = simulate_switching(
                SwitchingProcess(durations, sampler), g, x0, opts, seed=_derived_seed(cfg.seed, 1),
                record_stride=cfg.stride, delta=cfg.delta,
                on_interval=dump if cfg.graph_dump_stride > 0 else None,
            )
            run_fields = summary["result"] = _block(result.summary, RunSummary)
            summary["switching"] = {k: v for k, v in _block(result.summary).items() if k not in run_fields}
            write_interval_reports_csv(result.reports, out / "intervals.csv")
        result.trajectory.to_csv(out / "trajectory.csv")
    _write_json(out / "summary.json", summary)
    return summary


def run(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute one experiment, parse phase then run phase; returns the summary dict written to disk."""
    return _execute(_parse(cfg), out_dir)


def run_batch(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Monte Carlo batch: cfg.runs concurrent runs with derived seeds, each parsed before the pool starts."""
    from concurrent.futures import ProcessPoolExecutor  # imported here: only a --runs batch needs it

    out_root = Path(out_dir)
    runs = [_parse(dataclasses.replace(cfg, seed=_derived_seed(cfg.seed, 100, idx), runs=1))
            for idx in range(cfg.runs)]
    # a worker per run: a fork pool starts all of its workers at once
    with ProcessPoolExecutor(max_workers=min(cfg.runs, os.cpu_count() or 1)) as pool:
        summaries = list(pool.map(_execute, runs, [out_root / f"run_{i:03d}" for i in range(cfg.runs)]))
    reached = [s.get("result", {}).get("consensus_reached") for s in summaries]
    aggregate = {
        "runs": cfg.runs,
        "seed": cfg.seed,
        "consensus_reached_count": sum(1 for r in reached if r),
        "per_run": summaries,
    }
    _write_json(out_root / "runs.json", aggregate)
    return aggregate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="consensus-lab",
        description="Simulate and analyze discontinuous consensus protocols.",
    )
    parser.add_argument("mode", choices=MODES + ("examples",))
    parser.add_argument("--config", help="path to the experiment config (JSON)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--t-max", type=float, dest="t_max", help="override the time horizon")
    parser.add_argument("--runs", type=int, help="Monte Carlo batch size")
    parser.add_argument("--list", action="store_true", help="with mode=examples: list names only")
    args = parser.parse_args(argv)

    try:
        if args.mode == "examples":
            names = sorted(bundled.bundled_examples())
            if args.list or not args.out:
                print("\n".join(names))
                return 0
            paths = bundled.write_bundled(args.out)
            print(f"wrote {len(paths)} configs to {args.out}")
            return 0
        if not args.config:
            raise ConfigError("--config is required")
        cfg = load_config(
            args.config, mode=args.mode,
            overrides={"seed": args.seed, "out": args.out, "t_max": args.t_max, "runs": args.runs},
        )
        out = _out_dir(cfg, Path(args.config))
        if cfg.runs > 1:
            aggregate = run_batch(cfg, out)
            print(f"{cfg.runs} runs -> {out} "
                  f"(consensus in {aggregate['consensus_reached_count']}/{cfg.runs})")
        else:
            summary = run(cfg, out)
            outcome = summary.get("result", {}).get("consensus_reached")
            note = "" if outcome is None else f" consensus_reached={outcome}"
            print(f"{cfg.mode} run -> {out}{note}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # simulation / IO failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

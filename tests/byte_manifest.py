"""The byte-identity manifest: a sha256 for every output file of a fixed list of runs.

The runs are every bundled config (``fig4-nonconsensus`` both at its t_max of 100
and with ``--t-max 10``), ``blinking-50 --runs 2``, a ``fig1`` switching run with
``delta`` 0.5 and ``graph_dump_stride`` 2, and ``expected-eta`` on ``blinking-50``
(1000 samples) and on ``fig1`` (200 samples). Each goes through ``cli.main`` with a
relative ``--out``, so no path of the machine enters ``summary.json``.

The hashes hold for one numpy and BLAS build, recorded with them: a BLAS that
picks its kernel by CPU may round a matrix product differently. The orjson
version is recorded too, since ``trajectory.csv`` is written through it.

From the root of a checkout, after a change that moves outputs on purpose,
regenerate ``byte_manifest.json``, or write the outputs alone under DIR/out::

    PYTHONPATH=src python tests/byte_manifest.py
    PYTHONPATH=src python tests/byte_manifest.py --outputs DIR
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np

from consensus_lab import cli
from consensus_lab.bundled import bundled_examples, write_bundled

MANIFEST = Path(__file__).with_name("byte_manifest.json")

# a config written next to the bundled ones: name -> (bundled base, keys it replaces)
EXTRA_CONFIGS = {
    "fig1-switching": ("fig1-analyze", {
        "mode": "switching", "durations": {"constant": 0.2}, "function": {"preset": "unit-jump"},
        "x0": {"values": [-1.0, 1.0, 0.0, 0.0]}, "options": {"t_max": 3.0},
        "delta": 0.5, "graph_dump_stride": 2,
    }),
    "blinking-50-eta": ("blinking-50", {"mode": "expected-eta", "n_samples": 1000}),
    "fig1-eta": ("fig1-analyze", {"mode": "expected-eta", "n_samples": 200}),
}


def runs() -> dict[str, list[str]]:
    """The command line of each reference run, keyed by its output directory under ``out/``."""
    configs = {name: cfg["mode"] for name, cfg in bundled_examples().items()}
    configs.update({name: extra["mode"] for name, (_, extra) in EXTRA_CONFIGS.items()})
    lines = {name: [mode, "--config", f"{name}.json"] for name, mode in configs.items()}
    lines["fig4-nonconsensus-t10"] = lines["fig4-nonconsensus"] + ["--t-max", "10"]
    lines["blinking-50-runs2"] = lines["blinking-50"] + ["--runs", "2"]
    return {name: line + ["--out", f"out/{name}"] for name, line in sorted(lines.items())}


def write_outputs(root: Path) -> Path:
    """Runs every reference run in ``root``; returns the directory that holds their outputs."""
    write_bundled(root)
    examples = bundled_examples()
    for name, (base, extra) in EXTRA_CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps({**examples[base], **extra}, sort_keys=True))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, line in runs().items():
            if cli.main(line) != 0:
                raise RuntimeError(f"reference run {name} failed: {' '.join(line)}")
    finally:
        os.chdir(cwd)
    return root / "out"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_files(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, keyed by its POSIX path relative to ``out``."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _blas() -> str:
    """The OpenBLAS configuration numpy loaded, with the kernel it picked for this CPU; else its build-time BLAS."""
    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        get_config = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_config().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def build() -> dict:
    """The numpy version, the BLAS configuration and the orjson version."""
    return {"numpy": np.__version__, "blas": _blas(), "orjson": version("orjson")}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--outputs"]:
        write_outputs(Path(argv[1]))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        files = output_files(write_outputs(Path(tmp)))
    manifest = {"build": build(), "runs": {name: " ".join(line) for name, line in runs().items()},
                "files": {name: sha256(data) for name, data in files.items()}}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

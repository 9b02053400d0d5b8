"""Byte identity of the reference runs' outputs against ``byte_manifest.json``.

On the build the manifest records, every output file must hash as recorded. On
another numpy, BLAS or orjson build the test is skipped, with the two builds in
its reason: the hashes say nothing there, and a skip is reported, not passed.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np
import pytest

from byte_manifest import MANIFEST, build, output_files, sha256, write_outputs

REPO = Path(__file__).resolve().parents[1]
MANIFEST_PATH = MANIFEST.resolve().relative_to(REPO).as_posix()


def _reference_outputs(root: Path) -> dict[str, bytes] | None:
    """The outputs of the commit that last changed the manifest, rebuilt through git; None without it."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, check=True).stdout

    try:
        if git("status", "--porcelain", "--", MANIFEST_PATH).strip():
            return None  # a regenerated manifest not yet committed
        commit = git("log", "-1", "--format=%H", "--", MANIFEST_PATH).decode().strip()
        if not commit:
            return None
        archive = git("archive", commit, "src", "tests/byte_manifest.py")
    except (OSError, subprocess.CalledProcessError):
        return None
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    subprocess.run([sys.executable, "tests/byte_manifest.py", "--outputs", "run"], cwd=root, check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": "src"})
    return output_files(root / "run" / "out")


def _rows(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def _flat(obj, prefix: str = "") -> dict:
    """A JSON value as {dotted key: leaf}."""
    if isinstance(obj, dict):
        return {k: v for key, value in obj.items() for k, v in _flat(value, f"{prefix}{key}.").items()}
    if isinstance(obj, list):
        return {k: v for i, value in enumerate(obj) for k, v in _flat(value, f"{prefix}{i}.").items()}
    return {prefix[:-1]: obj}


def describe(name: str, new: bytes, old: bytes | None) -> str:
    """How the file ``name`` moved from ``old`` to ``new``; its name alone without ``old``."""
    if old is None:
        return name
    if name.endswith(".csv"):
        new_lines, old_lines = new.decode().splitlines(), old.decode().splitlines()
        first = next((i for i, (a, b) in enumerate(zip(new_lines, old_lines)) if a != b),
                     min(len(new_lines), len(old_lines)))
        a, b = _rows(new), _rows(old)
        rows = min(len(a), len(b))
        with np.errstate(invalid="ignore"):
            gap = np.nanmax(np.abs(a[:rows] - b[:rows]), initial=0.0) if a.shape[1:] == b.shape[1:] else None
        return (f"{name}: first differing line {first + 1} (of {len(new_lines)}, was {len(old_lines)});"
                f" largest absolute difference over the first {rows} rows: {gap}")
    if name.endswith(".json"):
        a, b = _flat(json.loads(new)), _flat(json.loads(old))
        return f"{name}: keys that differ: {sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))}"
    return name


def test_outputs_match_byte_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if build() != manifest["build"]:
        pytest.skip(f"the manifest holds for the build {manifest['build']}, not for this one, {build()}")
    files = output_files(write_outputs(tmp_path / "new"))
    expected = manifest["files"]
    moved = sorted(n for n in expected.keys() & files.keys() if sha256(files[n]) != expected[n])
    missing, extra = sorted(expected.keys() - files.keys()), sorted(files.keys() - expected.keys())
    if moved or missing or extra:
        reference = (_reference_outputs(tmp_path / "reference") if moved else None) or {}
        lines = [describe(n, files[n], reference.get(n)) for n in moved]
        if moved and not reference:
            lines.append("(no reference outputs: the manifest's commit could not be rebuilt through git)")
        pytest.fail("\n".join([f"{len(moved)} output files moved:", *lines,
                               f"missing: {missing}", f"not in the manifest: {extra}"]))


def test_describe_locates_what_moved():
    old = b"t,x_0,V\n0.0,1.0,0.0\n0.1,2.0,0.0\n0.2,inf,0.0\n"
    new = b"t,x_0,V\n0.0,1.0,0.0\n0.1,2.5,0.0\n0.2,inf,0.0\n"
    assert describe("a/trajectory.csv", new, old) == (
        "a/trajectory.csv: first differing line 3 (of 4, was 4);"
        " largest absolute difference over the first 3 rows: 0.5")
    assert describe("summary.json", b'{"a": {"b": [1, 2]}, "c": 3}', b'{"a": {"b": [1, 4]}, "d": 3}') == (
        "summary.json: keys that differ: ['a.b.1', 'c', 'd']")
    assert describe("graph.edges", b"n 2\n", None) == "graph.edges"

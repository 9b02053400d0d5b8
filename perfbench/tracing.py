"""Spans around the program's public functions, recorded from outside the program.

``Tracer.installed`` replaces each traced function by a wrapper in every
module namespace that holds it, because the program's modules import these
functions by name (``cli.simulate_fixed``, ``switching.scrambling_coefficient``,
...), and restores the originals on exit. Spans stay in memory: name, start,
end, parent span and a count taken at the same boundary (steps, rows,
intervals). Only the process that created the tracer records, so the forked
workers of ``cli.run_batch`` run untraced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


def _steps(args, kwargs, out) -> int:
    return out.summary.steps


def _csv_rows(args, kwargs, out) -> int:
    traj = args[0]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    rows = len(range(0, len(traj.t), stride))
    return rows + ((len(traj.t) - 1) % stride != 0)


def _length(args, kwargs, out) -> int:
    return len(out)


# (module, attribute, count): the traced public functions, by the module that defines them.
TARGETS = [
    ("cli", "run", None),
    ("cli", "run_batch", None),
    ("cli", "load_config", None),
    ("bundled", "write_bundled", None),
    ("dynamics", "simulate_fixed", _steps),
    ("dynamics", "Trajectory.to_csv", _csv_rows),
    ("switching", "simulate_switching", _steps),
    ("switching", "sample_schedule", _length),
    ("switching", "write_interval_reports_csv", None),
    ("switching", "estimate_expected_eta", None),
    ("switching", "sample_blinking", None),
    ("graph", "scrambling_coefficient", None),
    ("graph", "laplacian", None),
    ("graph", "is_delta_scrambling", None),
    ("graph", "root_partition", None),
    ("graph", "wra", None),
    ("protocol", "validated", None),
    ("protocol", "epsilon_separation", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    count: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, lab):
        """Patch every TARGETS function wherever the program's modules hold it."""
        namespaces = [lab.graph, lab.protocol, lab.dynamics, lab.switching, lab.bundled, lab.cli]
        undo = []
        try:
            for module, attr, count in TARGETS:
                name, owner, holders = f"{module}.{attr}", getattr(lab, module), namespaces
                if "." in attr:  # a method: patch the class
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    holders = [owner]
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, count)
                for ns in holders:
                    if getattr(ns, attr, None) is original:
                        undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original in reversed(undo):
                setattr(ns, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            t = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            t["calls"] += 1
            t["s"] += span.end - span.start
            t["self_s"] += span.end - span.start - children
            t["count"] += span.count
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([vars(s) for s in self.spans]) + "\n")

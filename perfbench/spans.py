"""In-memory span tracing around calls into rulebound's modules.

A span is one call of a traced function: its name, start and end times, the
index of the span that was open when it started (its parent, -1 for none),
the id of the benchmark operation it belongs to, and an optional dict of
work counts. Spans stay in memory until the run ends.

Functions are traced by replacing them, for the duration of a `traced`
block, at the module attribute their caller looks them up by: `training.py`
does `from .model import sgd_step`, so its calls go through
`rulebound.training.sgd_step`, not `rulebound.model.sgd_step`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, OP, COUNTS = range(6)


@dataclass(frozen=True)
class Target:
    """One traced call site: `module.attr` is replaced by a wrapper recording spans named `span`.

    `count(args, kwargs, result)` returns a dict of work counts stored on the span.
    """

    module: str
    attr: str
    span: str
    count: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][COUNTS] = count(args, kwargs, result)
            return result

        return traced_call

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for name, start, end, parent, op, counts in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer, targets):
    """Replace every target by a tracing wrapper; put the originals back on exit."""
    saved = []
    try:
        for t in targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr)
            saved.append((module, t.attr, original))
            setattr(module, t.attr, tracer.wrap(t.span, original, t.count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out

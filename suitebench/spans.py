"""In-memory spans recorded around the benchmark's calls into the engine.

A span is (name, start, end, parent, op). Spans of one op share the op id;
the parent is the span open on the same thread when this one began. Spans
stay in memory and are written out once, when the run ends. A layer's self
time is its span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = "none"
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            span = Span(sid, name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.op)
            self.spans.append(span)
        stack.append(sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[self.op][name] += n

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` with a span named ``name`` around every call;
        ``on_result(args, kwargs, result)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def self_times(self, op: str) -> dict[str, float]:
        """Summed self time per span name within one op."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.op != op:
                continue
            covered, cursor = 0.0, s.start
            for c in sorted(children[s.sid], key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.name] += (s.end - s.start) - covered
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
            for op, counts in self.counts.items():
                f.write(json.dumps({"op": op, "counts": dict(counts)}) + "\n")


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is a list of
    ``(owner, attribute name, replacement)``."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

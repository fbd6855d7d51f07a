"""In-memory spans recorded by wrappers around calls into each layer.

The wrappers are installed from the benchmark's own files, by replacing
a module attribute where the caller looks the name up (``bootstrap``
imports ``fit_conditional`` by name, so the wrapper goes on
``causalboot.bootstrap.fit_conditional``).  Nothing under ``src/`` is
edited.  A name that no longer exists is reported as missing, not as a
failure.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = ""
        self._root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(layer, time.perf_counter(), 0.0, parent, threading.get_ident(), self.op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def operation(self, op: str, fn: Callable, *args):
        """Run one workload operation under a root span named after it;
        spans opened by pool threads hang under this root."""
        self.op = op
        index = self._open("op")
        self._root = index
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._root = None

    def wrap(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if count is not None:
                span.counts = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ---------------------------------------------------------

    def install(self, owner, attr: str, layer: str, count: Callable | None = None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- summaries --------------------------------------------------------------

    def of(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]

    def total(self, layer: str) -> float:
        return sum(s.end - s.start for s in self.of(layer))

    def count(self, layer: str, name: str) -> float:
        return sum(s.counts.get(name, 0) for s in self.of(layer))

    def p50(self, layer: str) -> float:
        durations = [s.end - s.start for s in self.of(layer)]
        return statistics.median(durations) if durations else 0.0

    def self_time(self, layer: str) -> float:
        """Span time not covered by the span's children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.layer != layer:
                continue
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (s.end - s.start) - covered
        return total

    def dump(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.layer, s.start, s.end, s.parent, s.thread, s.op, s.counts]))
                fh.write("\n")

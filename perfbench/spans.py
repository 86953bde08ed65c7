"""In-memory spans around calls into sclp's public functions.

A Tracer hands out the sclp functions a workload calls.  Untraced, it
returns them unchanged, so an untraced pass pays nothing.  Traced, each is
wrapped in a span named after the layer that owns it; spans stay in memory
and are written to a JSON file when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int | None, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.counts: dict[str, float] = {}

    def count(self, **counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class _NullSpan:
    def count(self, **counts):
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans when enabled; otherwise every operation is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        """fn itself when disabled; else fn inside a span named `name`.

        counter(span, result, args, kwargs) records work counts on the span.
        """
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(sp, result, args, kwargs)
                return result

        return traced

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of spans[first:]: duration minus that of its children.

        Children run one after another, so their durations do not overlap.
        """
        spans = self.spans[first:]
        out = [sp.end - sp.start for sp in spans]
        for sp in spans:
            if sp.parent is not None and sp.parent >= first:
                out[sp.parent - first] -= sp.end - sp.start
        return out

    def write(self, path: str):
        rows = [{"name": sp.name, "parent": sp.parent, "start": sp.start,
                 "end": sp.end, "counts": sp.counts} for sp in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)

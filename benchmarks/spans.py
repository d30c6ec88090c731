"""In-memory spans for the traced benchmark run.

A span records a name, its start and end on the ``perf_counter`` clock, the
span that was open when it started, and free-form attributes such as the
target it ran on. Spans are kept in a list that the caller writes out once,
at the end of the run, so recording one costs two clock reads and a dict.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, **attrs):
        """``fn`` with every call recorded as a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def select(self, name: str, parent: str | None = None, **attrs) -> list[dict]:
        """Spans with this name and these attributes, and a parent of this name if given."""
        return [
            s
            for s in self.spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in attrs.items())
            and (parent is None or (s["parent"] is not None and self.spans[s["parent"]]["name"] == parent))
        ]

    def durations(self, name: str, parent: str | None = None, **attrs) -> list[float]:
        """Durations in seconds of the spans ``select`` picks."""
        return [s["end"] - s["start"] for s in self.select(name, parent, **attrs)]

    def total(self, name: str, parent: str | None = None, **attrs) -> float:
        return sum(self.durations(name, parent, **attrs))

    def self_total(self, name: str, **attrs) -> float:
        """Summed self time of the spans with this name and these attributes."""
        chosen = {s["id"] for s in self.select(name, **attrs)}
        total = sum(self.spans[i]["end"] - self.spans[i]["start"] for i in chosen)
        for s in self.spans:
            if s["parent"] in chosen:
                total -= s["end"] - s["start"]
        return total

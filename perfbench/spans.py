"""The benchmark's own span recorder and self-time arithmetic.

Spans are recorded around the calls the benchmark makes into the
program (never inside it), kept in memory and written out with the run
result.  Each span has a name, start, end, parent and an optional id
(one per design or job).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, id: str | None = None):
        record = {
            "span": len(self.records),
            "name": name,
            "id": id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["span"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


def self_time(span) -> float:
    """A program span's duration minus the time its children cover.

    Children of one span run one after another, so their union is the
    sum of their durations.
    """
    children = sum(child.duration_s or 0.0 for child in span.children)
    return (span.duration_s or 0.0) - children

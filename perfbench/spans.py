"""Outside-in spans: recorded from perfbench only, around public calls.

A span has a name (the layer metric it feeds, e.g. ``compiler.run``),
the op it belongs to (an id shared by every span of one traced op), a
start, an end and the span that caused it.  Spans stay in memory and are
written once, when the traced pass ends.  Spans *inside* ``src/repro``
are the ROADMAP's instrumentation-spine item, not this module's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    #: multiplier onto the reference machine (see perfbench.calibrate);
    #: set per traced round once its closing calibration has run
    factor: float = 1.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0 * self.factor


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def scale_from(self, first: int, factor: float) -> None:
        """Normalise every span recorded since index *first*."""
        for record in self.spans[first:]:
            record.factor = factor

    def children(self, parent: int) -> list[Span]:
        return [s for s in self.spans if s.parent == parent]

    def self_ms(self, record: Span) -> float:
        """The span's duration minus the part its children cover."""
        return record.ms - sum(child.ms for child in self.children(record.id))

    def self_times(self) -> list[float]:
        """:meth:`self_ms` of every span, in one pass."""
        left = [record.ms for record in self.spans]
        for record in self.spans:
            if record.parent is not None:
                left[record.parent] -= record.ms
        return left

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def problems(self) -> list[str]:
        """Why the span forest is not well-formed (empty when it is):
        children lie inside their parents and share their op id, self
        times are not negative, and every root span has its own op."""
        found: list[str] = []
        slack = 1e-9
        roots: dict[str, int] = {}
        for record in self.spans:
            if record.end < record.start:
                found.append(f"span {record.id} {record.name} ends before it starts")
            if record.parent is None:
                if record.op in roots:
                    found.append(f"op {record.op!r} has two root spans")
                roots[record.op] = record.id
                continue
            parent = self.spans[record.parent]
            if record.op != parent.op:
                found.append(f"span {record.id} op {record.op!r} != parent's {parent.op!r}")
            if record.start < parent.start - slack or record.end > parent.end + slack:
                found.append(f"span {record.id} {record.name} leaves its parent {parent.name}")
        for record, left in zip(self.spans, self.self_times()):
            if left < -1e-6:
                found.append(f"span {record.id} {record.name} has negative self time")
        return found

    def dump(self, path: Path) -> None:
        """One JSON object: ``spans`` is a list of rows with the Span
        fields plus ``ms`` and ``self_ms`` (both speed-normalised)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{**asdict(s), "ms": s.ms, "self_ms": left}
                for s, left in zip(self.spans, self.self_times())]
        path.write_text(json.dumps({"spans": rows}) + "\n")

    @classmethod
    def load(cls, path: Path) -> "SpanRecorder":
        recorder = cls()
        names = Span.__dataclass_fields__
        for row in json.loads(path.read_text())["spans"]:
            recorder.spans.append(Span(**{k: v for k, v in row.items() if k in names}))
        return recorder

"""In-memory spans recorded around the benchmark's calls into sumnet.

A span records its name, start, end, parent span and instance id, plus an
optional amount of work (ticks, edges) that the caller fills in.  Spans stay
in memory and are written out once, when the run ends.  The untraced run uses
``NULL_TRACER``, whose spans record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Span:
    """One timed call; entering it makes it the parent of spans opened inside."""

    __slots__ = ("name", "instance", "parent", "start", "end", "work", "tag", "_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int, name: str, instance, parent):
        self.name = name
        self.instance = instance
        self.parent = parent
        self.start = self.end = 0.0
        self.work = 0
        self.tag = None
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "Span":
        self._tracer._open.append(self._index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self._tracer._open.pop()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, instance=None) -> Span:
        parent = self._open[-1] if self._open else None
        s = Span(self, len(self.spans), name, instance, parent)
        self.spans.append(s)
        return s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": s.name, "instance": s.instance, "parent": s.parent,
             "start": s.start, "end": s.end, "work": s.work, "tag": s.tag}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds, work, and call durations.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the benchmark is single-threaded.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            d = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "work": 0, "durations": [], "tags": defaultdict(float)})
            dur = s.end - s.start
            d["calls"] += 1
            d["busy_s"] += dur
            d["self_s"] += dur - child_time[i]
            d["work"] += s.work
            d["durations"].append(dur)
            if s.tag is not None:
                d["tags"][s.tag] += dur
        return out


class _NullTracer:
    """Stands in for a Tracer on the untraced run; its one span is reused."""

    def __init__(self) -> None:
        self._span = _NullSpan()

    def span(self, name: str, instance=None) -> "_NullSpan":
        return self._span


class _NullSpan:
    __slots__ = ("work", "tag")

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_TRACER = _NullTracer()


def percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of durations, in milliseconds."""
    if len(durations) < 2:
        return 1000.0 * sum(durations)
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]

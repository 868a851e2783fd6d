"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions -- nothing inside ``src/repro`` is
instrumented.  They are kept in memory (name, start, end, parent, the
unit-of-work they belong to) and written out once, at the end, in
trace-event form.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover.

End-to-end numbers are always taken with ``NULL`` (tracing off); the
per-layer numbers come from a separate traced run, and the difference
between the two is reported as the tracing overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   #: index of the enclosing span, None at top level
    group: int              #: the timed unit (or request) it belongs to


class Recorder:
    """In-memory spans; ``span()`` nests by call order."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.group = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self._clock(), 0.0, parent, self.group))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the open one: for work that overlaps
        on one thread (two connections' requests in flight at once)."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, end, parent, self.group))

    def self_time_by_group(self) -> Dict[int, Dict[str, float]]:
        """group -> span name -> summed self seconds."""
        out: Dict[int, Dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            names = out.setdefault(span.group, {})
            names[span.name] = names.get(span.name, 0.0) + own
        return out


class _NullRecorder:
    """Tracing off: ``span()`` costs one generator and no clock read."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL = _NullRecorder()


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the part its direct children cover.

    Children may overlap each other (concurrent requests recorded with
    :meth:`Recorder.record`), so the covered part is the length of the
    union of their intervals, clipped to the parent.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    own = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        own.append(span.end - span.start - covered)
    return own


def to_trace_events(spans: List[Span], process: str) -> List[dict]:
    """Complete ("X") events in microseconds since the first span."""
    origin = min((span.start for span in spans), default=0.0)
    events: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 1,
        "args": {"name": process},
    }]
    for span in spans:
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
            "pid": 1, "tid": 1,
            "ts": (span.start - origin) * 1e6,
            "dur": max(span.end - span.start, 0.0) * 1e6,
            "args": {"group": span.group},
        })
    return events


def write_trace(spans: List[Span], path: Path, process: str) -> List[dict]:
    """Write the trace file; returns the events (for validation)."""
    events = to_trace_events(spans, process)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n",
                    encoding="utf-8")
    return events

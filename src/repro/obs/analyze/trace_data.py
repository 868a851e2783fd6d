"""Neutral trace model: one shape for live tracers and exported files.

Analysis must not care where a trace came from: ``python -m repro
analyze --run fig06`` works on a live :class:`~repro.obs.Tracer` while
``--trace trace.json`` reloads a Perfetto JSON file written by
:func:`repro.obs.export.write_trace`.  There is one loader: a live tracer is
rendered to the exporter's event list and read back exactly like a
file.  Records carry the exact virtual-clock seconds the exporter
stores in its top-level ``t0``/``t1``/``seq`` keys (the ``ts``/``dur``
microsecond fields lose float precision), so the JSON round trip loses
no float bits -- pinned by ``tests/test_analyze.py::TestTraceRoundTrip``.

A single trace may hold several sequential simulator runs (a strategy
sweep traces ``none`` and ``netagg`` back to back, both starting at
virtual t=0).  Times therefore cannot segment a trace; the tracer-wide
monotonic ``seq`` can, because the layers run single-threaded: every
record emitted during a run sits between that run's ``flowsim.run``
span and the next one's.  :meth:`TraceData.runs` performs that cut.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from repro.obs.export import to_trace_events
from repro.obs.tracer import Tracer

#: Span name the simulator opens around one :meth:`FlowSim.run`.
RUN_SPAN = "flowsim.run"
#: Span name the platform opens around one ``execute_request``.
REQUEST_SPAN = "platform.request"


@dataclass(frozen=True)
class SpanRec:
    """One closed interval (open spans are padded to the horizon)."""

    seq: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    tags: Mapping[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class InstantRec:
    seq: int
    name: str
    layer: str
    at: float
    tags: Mapping[str, object]


@dataclass(frozen=True)
class SampleRec:
    seq: int
    name: str
    layer: str
    at: float
    value: float


@dataclass
class RunView:
    """All records emitted during one ``flowsim.run`` span."""

    span: SpanRec
    spans: List[SpanRec] = field(default_factory=list)
    instants: List[InstantRec] = field(default_factory=list)
    samples: List[SampleRec] = field(default_factory=list)

    @property
    def strategy(self) -> str:
        return str(self.span.tags.get("strategy", ""))

    @property
    def end_time(self) -> float:
        return self.span.end


@dataclass
class TraceData:
    """A loaded trace: spans/instants/samples in ``seq`` order."""

    spans: List[SpanRec] = field(default_factory=list)
    instants: List[InstantRec] = field(default_factory=list)
    samples: List[SampleRec] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    # -- loading -----------------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceData":
        """Snapshot a live tracer, as the file it would export.

        :func:`repro.obs.export.to_trace_events` closes open spans at
        the latest timestamp seen anywhere and cleans the tags, so
        analysing a tracer and analysing its exported file give
        identical results.
        """
        return cls.from_payload({"traceEvents": to_trace_events(tracer)})

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "TraceData":
        """Load from a parsed trace JSON object (``traceEvents`` + co)."""
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("not a trace_event payload: no traceEvents list")
        data = cls(metrics=dict(payload.get("metrics", {})))
        for event in events:
            if not isinstance(event, dict):
                continue
            ph = event.get("ph")
            if ph == "M":
                continue
            layer = str(event.get("cat", ""))
            if layer == "repro":  # exporter's stand-in for the empty tag
                layer = ""
            name = str(event.get("name", ""))
            at = _exact_time(event, "t0", event.get("ts", 0.0))
            args = event.get("args") or {}
            if ph == "X":
                span_id = int(args.get("span_id", 0))
                parent = args.get("parent_id")
                tags = {k: v for k, v in args.items()
                        if k not in ("span_id", "parent_id")}
                end = _exact_time(
                    event, "t1", event.get("ts", 0.0) + event.get("dur", 0.0))
                data.spans.append(SpanRec(
                    seq=span_id,
                    parent=int(parent) if parent is not None else None,
                    name=name, layer=layer, start=at, end=end, tags=tags,
                ))
            elif ph in ("i", "I"):
                data.instants.append(InstantRec(
                    seq=int(event.get("seq", 0)), name=name, layer=layer,
                    at=at, tags=dict(args),
                ))
            elif ph == "C":
                data.samples.append(SampleRec(
                    seq=int(event.get("seq", 0)), name=name, layer=layer,
                    at=at, value=float(args.get("value", 0.0)),
                ))
        data._sort()
        return data

    @classmethod
    def from_file(cls, path: Union[str, pathlib.Path]) -> "TraceData":
        payload = json.loads(
            pathlib.Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: not a trace_event JSON object")
        return cls.from_payload(payload)

    def _sort(self) -> None:
        self.spans.sort(key=lambda r: r.seq)
        self.instants.sort(key=lambda r: r.seq)
        self.samples.sort(key=lambda r: r.seq)

    # -- views -------------------------------------------------------------

    def runs(self) -> List[RunView]:
        """Segment into per-``flowsim.run`` views (see module docstring).

        A record belongs to the run whose span's ``seq`` is the largest
        one below the record's own ``seq`` -- i.e. the run that was in
        progress when the record was emitted.  Records before the first
        run span (or in a trace with none) are not part of any run.
        """
        anchors = [s for s in self.spans if s.name == RUN_SPAN]
        views = [RunView(span=a) for a in anchors]
        if not views:
            return []
        bounds = [a.seq for a in anchors] + [float("inf")]

        def owner(seq: int) -> Optional[RunView]:
            for i, view in enumerate(views):
                if bounds[i] < seq < bounds[i + 1]:
                    return view
            return None

        for span in self.spans:
            view = owner(span.seq)
            if view is not None:
                view.spans.append(span)
        for instant in self.instants:
            view = owner(instant.seq)
            if view is not None:
                view.instants.append(instant)
        for sample in self.samples:
            view = owner(sample.seq)
            if view is not None:
                view.samples.append(sample)
        return views

    def request_spans(self) -> List[SpanRec]:
        """The platform's per-request envelope spans, in ``seq`` order."""
        return [s for s in self.spans if s.name == REQUEST_SPAN]


def _exact_time(event: Mapping[str, object], key: str,
                fallback_us: object) -> float:
    """Prefer the exporter's exact-seconds key; fall back to µs fields
    (scaled back) for traces written by older exporters."""
    value = event.get(key)
    if isinstance(value, (int, float)):
        return float(value)
    return float(fallback_us) / 1e6

"""Structured tracing over the layers' virtual clocks.

A :class:`Tracer` collects three record kinds:

- :class:`Span` -- a named interval ``[start, end]`` with a layer tag,
  free-form tags, and a parent id.  Parentage comes from a strict LIFO
  stack: a span begun while another is open is its child, and spans
  must end in reverse begin order (enforced -- the chaos/property
  suites assert traces are well-formed by construction).
- :class:`Instant` -- a point event (a retry, a NACK, a health
  transition, a capacity change).
- :class:`Sample` -- a ``(name, at, value)`` counter sample, rendered
  as a Perfetto counter track (per-epoch active flows, per-link
  utilization).

Every record carries a ``seq`` drawn from one tracer-wide monotonic
counter, so the interleaving of spans, instants and samples survives
export (the layers run single-threaded, making the sequence a total
order).  :mod:`repro.obs.analyze` uses it to segment a trace that holds
several sequential simulator runs.

Timestamps are whatever virtual clock the instrumented layer runs on
(simulated seconds for the flow simulator, the platform's virtual
clock for shims and boxes).  The tracer never reads wall time.

The module-global active tracer defaults to :data:`NULL_TRACER`, whose
methods are no-ops and whose ``enabled`` flag is False.  Every call site
outside ``repro.obs`` has one shape -- ``span = tracer.begin(...) if
tracer.enabled else 0``, the work in a ``try``, ``if span:
tracer.end(...)`` in its ``finally``; instants and samples under ``if
tracer.enabled:`` -- so a disabled tracer costs a :func:`get_tracer`
call and one attribute test per site and builds no tag dict, and an
enabled one pays for a record, not for a generator.
:meth:`Tracer.span` (a ``@contextmanager``, several times the cost of
the begin/end pair it wraps) is for tests and off-path callers;
``tools/check_obs.py`` rejects ``with ....span(`` anywhere else.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


class Span:
    """One named interval on a layer's virtual clock."""

    __slots__ = ("span_id", "parent_id", "name", "layer", "start", "end",
                 "tags")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 layer: str, start: float, end: Optional[float],
                 tags: Dict[str, object]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end  #: None while the span is open
        self.tags = tags

    def __repr__(self) -> str:
        return (f"Span({self.span_id}, {self.name!r}, {self.layer!r}, "
                f"[{self.start}, {self.end}], {self.tags})")

    @property
    def seq(self) -> int:
        """Global record sequence number (spans use their id)."""
        return self.span_id

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} ({self.span_id}) is open")
        return self.end - self.start


class Instant(NamedTuple):
    """One point event."""

    name: str
    at: float
    layer: str
    tags: Dict[str, object]
    seq: int  #: global record sequence number


class Sample(NamedTuple):
    """One counter-track sample."""

    name: str
    at: float
    value: float
    layer: str = ""
    seq: int = 0  #: global record sequence number


#: Sample-name prefix of the simulator's per-link utilization counter
#: tracks: ``link.util:<link_id>``.  Shared between the emitting layer
#: (:mod:`repro.netsim.simulator`) and :mod:`repro.obs.analyze`.
LINK_UTIL_PREFIX = "link.util:"


class Tracer:
    """Collects spans, instants and samples (see module docstring)."""

    __slots__ = ("enabled", "spans", "instants", "samples", "_stack",
                 "_next_id")

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.samples: List[Sample] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, at: float, layer: str = "",
              **tags: object) -> int:
        """Open a span; the innermost open span becomes its parent."""
        stack = self._stack
        span = Span(self._take_seq(),
                    stack[-1].span_id if stack else None,
                    name, layer, at, None, tags)
        self.spans.append(span)
        stack.append(span)
        return span.span_id

    def complete(self, name: str, start: float, end: float,
                 layer: str = "", parent_id: Optional[int] = None,
                 **tags: object) -> int:
        """Record an already-finished span, bypassing the LIFO stack.

        For intervals known only in hindsight -- e.g. a simulated flow's
        ``[admitted, drained]`` window, recorded when the flow drains.
        Such spans overlap freely, so they never participate in stack
        parentage; ``parent_id`` links them explicitly (usually to the
        enclosing run span).
        """
        if end < start:
            raise ValueError(
                f"span {name!r} ends at {end} before its start {start}"
            )
        span = Span(self._take_seq(), parent_id, name, layer, start, end,
                    tags)
        self.spans.append(span)
        return span.span_id

    def end(self, span_id: int, at: float) -> None:
        """Close a span; must be the innermost open one (strict LIFO)."""
        if not self._stack:
            raise RuntimeError(f"end({span_id}) with no open span")
        top = self._stack[-1]
        if top.span_id != span_id:
            raise RuntimeError(
                f"unbalanced span end: {span_id} closed while "
                f"{top.name!r} ({top.span_id}) is innermost"
            )
        if at < top.start:
            raise ValueError(
                f"span {top.name!r} ends at {at} before its start "
                f"{top.start}"
            )
        top.end = at
        self._stack.pop()

    @contextmanager
    def span(self, name: str, clock: Callable[[], float], layer: str = "",
             **tags: object) -> Iterator[Span]:
        """Span over a ``with`` block; ``clock`` reads the virtual time
        at entry and exit (it is called twice)."""
        span_id = self.begin(name, clock(), layer=layer, **tags)
        opened = self._stack[-1]
        try:
            yield opened
        finally:
            self.end(span_id, clock())

    def instant(self, name: str, at: float, layer: str = "",
                **tags: object) -> None:
        self.instants.append(Instant(name, at, layer, tags,
                                     self._take_seq()))

    def sample(self, name: str, at: float, value: float,
               layer: str = "") -> None:
        self.samples.append(Sample(name, at, value, layer,
                                   self._take_seq()))

    def _take_seq(self) -> int:
        seq = self._next_id
        self._next_id += 1
        return seq

    # -- inspection --------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (innermost last)."""
        return list(self._stack)

    def finished(self) -> bool:
        return not self._stack

    def layers(self) -> List[str]:
        """Distinct layer tags seen, sorted."""
        seen = {s.layer for s in self.spans}
        seen.update(i.layer for i in self.instants)
        seen.update(s.layer for s in self.samples)
        seen.discard("")
        return sorted(seen)

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError(
                f"clear() with {len(self._stack)} span(s) still open"
            )
        self.spans.clear()
        self.instants.clear()
        self.samples.clear()
        self._next_id = 1


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op.

    Instrumentation checks ``tracer.enabled`` before building a
    record's tags (module docstring), so a guarded site reaches none of
    these; they stay no-ops so an un-guarded caller is still safe.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def begin(self, name: str, at: float, layer: str = "",
              **tags: object) -> int:
        return 0

    def end(self, span_id: int, at: float) -> None:
        return None

    def complete(self, name: str, start: float, end: float,
                 layer: str = "", parent_id: Optional[int] = None,
                 **tags: object) -> int:
        return 0

    def span(self, name: str, clock: Callable[[], float], layer: str = "",
             **tags: object):
        return nullcontext()

    def instant(self, name: str, at: float, layer: str = "",
                **tags: object) -> None:
        return None

    def sample(self, name: str, at: float, value: float,
               layer: str = "") -> None:
        return None


#: The process-wide disabled tracer (the default active tracer).
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The active tracer (:data:`NULL_TRACER` unless one is installed)."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the active tracer (None = disable).

    Returns the previously active tracer so callers can restore it;
    prefer the :func:`tracing` context manager, which does that for
    you.
    """
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate ``tracer`` (a fresh :class:`Tracer` by default) for the
    block, restoring the previous tracer afterwards."""
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)

"""The functional agg-box runtime.

This is the piece the platform (:mod:`repro.core`) deploys per box: it
hosts the aggregation functions of multiple applications, collects
partial results per request, merges them through a local aggregation
tree, and emits the aggregate once the expected number of partials has
arrived (the shim layer of the master announces that count, §3.2.2).

Incoming data is framed binary (see :mod:`repro.wire`); each application
registers its own serialiser pair so the box can deserialise without
knowing application semantics -- mirroring how the prototype reuses
Hadoop's SequenceFile codec and Solr's result serialiser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.aggbox.functions import AggregationFunction
from repro.aggbox.localtree import tree_aggregate
from repro.obs import METRICS, get_tracer
from repro.wire.framing import ChunkReassembler, whole_frame


@dataclass
class AppBinding:
    """One application hosted on a box.

    Attributes:
        app: application name.
        function: its aggregation function.
        deserialise: frame payload -> Python partial result; None for
            a box fed only decoded values (``submit_partial``).
        serialise: Python aggregate -> frame payload.
    """

    app: str
    function: AggregationFunction
    deserialise: Optional[Callable[[bytes], Any]]
    serialise: Callable[[Any], bytes]


@dataclass
class RequestState:
    """Partial-result collection state for one (app, request)."""

    app: str
    request_id: str
    expected: Optional[int] = None
    partials: List[Any] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
    #: Sources already folded into an emitted aggregate (failure
    #: recovery de-duplication, §3.1 "Handling failures").
    processed_sources: List[str] = field(default_factory=list)
    emitted: bool = False

    @property
    def complete(self) -> bool:
        return self.expected is not None and \
            len(self.partials) >= self.expected


@dataclass
class AggregateReady:
    """An emitted aggregate: payload plus provenance."""

    app: str
    request_id: str
    value: Any
    payload: bytes
    sources: List[str]


class AggBoxRuntime:
    """Hosts aggregation functions and merges partial results.

    A box holds a request's partials from its announcement until it
    emits, and forgets the request on :meth:`release`; nothing bounds
    or sheds what it buffers, because nothing outlives the request.
    ``clock`` is the virtual time stamped onto trace records; the
    hosting platform advances it alongside its own clock.
    """

    def __init__(self, box_id: str) -> None:
        self.box_id = box_id
        self.clock = 0.0
        #: Platform-level request id behind the partials currently being
        #: fed (the per-request key ``request_id`` is a per-tree alias
        #: like ``<origin>@t0``).  The hosting platform sets this before
        #: each delivery; it is stamped onto the box's ``box.emit`` spans
        #: so the critical-path extractor can group box work per request.
        self.trace_origin = ""
        self._apps: Dict[str, AppBinding] = {}
        #: Requests in flight: an entry leaves on :meth:`release`.
        self._requests: Dict[tuple, RequestState] = {}
        #: Partially received frames only: an entry leaves once drained.
        self._reassemblers: Dict[tuple, ChunkReassembler] = {}
        # Registry metrics survive METRICS.reset() (values zero in
        # place), so caching the object here is safe and keeps the
        # per-partial path to one method call.
        self._m_partials = METRICS.counter("aggbox.partials")

    def pending_count(self) -> int:
        """Partials buffered across all requests, not yet folded."""
        return sum(len(state.partials) for state in self._requests.values())

    # -- application management ---------------------------------------------

    def register_app(self, binding: AppBinding) -> None:
        if binding.app in self._apps:
            raise ValueError(f"app {binding.app!r} already registered")
        self._apps[binding.app] = binding

    def binding(self, app: str) -> AppBinding:
        """The registered binding for ``app`` (KeyError if unknown)."""
        return self._binding(app)

    # -- request lifecycle -----------------------------------------------------

    def announce(self, app: str, request_id: str, expected: int) -> None:
        """Shim metadata: how many partial results to expect (§3.2.2)."""
        if expected < 1:
            raise ValueError("expected partial count must be >= 1")
        state = self._state(app, request_id)
        if state.expected is not None and state.expected != expected:
            raise ValueError(
                f"conflicting expected counts for {app}/{request_id}: "
                f"{state.expected} vs {expected}"
            )
        state.expected = expected

    def adjust_expected(self, app: str, request_id: str,
                        delta: int) -> Optional[AggregateReady]:
        """Change the expected partial count (failure recovery, §3.1).

        When an upstream node adopts a failed box's children, one input
        (the failed box's aggregate) is replaced by the children's
        individual results; the expected count shifts accordingly.
        Returns an aggregate if the adjustment completes the request.
        """
        state = self._state(app, request_id)
        if state.expected is None:
            raise ValueError(
                f"no announcement for {app}/{request_id}; nothing to adjust"
            )
        new_expected = state.expected + delta
        if new_expected < 0:
            raise ValueError(
                f"adjusted expected count {new_expected} must stay >= 0"
            )
        state.expected = new_expected
        if state.partials and not state.emitted and state.complete:
            return self._emit(self._binding(app), state)
        return None

    def has_source(self, app: str, request_id: str, source: str) -> bool:
        """True when ``source``'s partial was received (pending or
        already folded into an emitted aggregate)."""
        state = self._requests.get((app, request_id))
        return state is not None and (
            source in state.sources or source in state.processed_sources)

    def submit_partial(self, app: str, request_id: str, source: str,
                       value: Any) -> Optional[AggregateReady]:
        """Deliver one deserialised partial result.

        Returns the aggregate when this partial completes the request.
        Re-submissions from already-processed sources are dropped (the
        failure-recovery protocol resends only unprocessed results).
        """
        return self._intake(self._binding(app), self._state(app, request_id),
                            source, value)

    def submit_chunk(self, app: str, request_id: str, source: str,
                     chunk: bytes) -> Optional[AggregateReady]:
        """Deliver raw bytes; frames are reassembled across chunks.

        Each completed frame is deserialised with the application's codec
        and treated as one partial result from ``source``.  A chunk that
        is exactly one frame, on a stream with nothing buffered, skips
        the reassembler.
        """
        binding = self._binding(app)
        key = (app, request_id, source)
        reassembler = self._reassemblers.pop(key, None)
        payload = whole_frame(chunk) if reassembler is None else None
        if payload is not None:
            frames = [payload]
        else:
            reassembler = reassembler or ChunkReassembler()
            frames = reassembler.feed(chunk)
            if reassembler.pending_bytes:
                self._reassemblers[key] = reassembler
        result = state = None
        for frame_payload in frames:
            value = binding.deserialise(frame_payload)
            if state is None:
                state = self._state(app, request_id)
            emitted = self._intake(binding, state, source, value)
            if emitted is not None:
                result = emitted
        return result

    def partial_streams(self) -> List[tuple]:
        """``(app, request, source)`` of every stream buffered mid-frame."""
        return list(self._reassemblers)

    def pending_requests(self) -> List[RequestState]:
        return [s for s in self._requests.values() if not s.emitted]

    def flush(self, app: str, request_id: str) -> Optional[AggregateReady]:
        """Aggregate whatever arrived so far (straggler handling, §3.1:
        "the agg box just aggregates available results").

        May fire more than once per request: partials arriving after an
        earlier emission (failure-recovery redirects) flush as a *delta*
        aggregate, which is safe to merge downstream because the
        functions are associative and commutative.
        """
        state = self._state(app, request_id)
        if not state.partials:
            return None
        return self._emit(self._binding(app), state)

    def last_processed(self, app: str, request_id: str) -> List[str]:
        """Sources whose partials were folded into an emitted aggregate.

        The failure protocol sends this upstream so children do not
        resend already-processed results.
        """
        state = self._requests.get((app, request_id))
        return list(state.processed_sources) if state is not None else []

    def pending_sources(self, app: str, request_id: str) -> List[str]:
        """Sources received but not yet folded into an emission.

        When this box dies, exactly these partials are lost: emissions
        were handed upstream synchronously, and everything else never
        arrived.  The recovery protocol replays them.
        """
        state = self._requests.get((app, request_id))
        return list(state.sources) if state is not None else []

    def release(self, app: str, request_id: str) -> int:
        """Forget ``request_id``: the request is over, however it ended.

        Drops its collection state and its half-received frames.
        Returns how many partials were still buffered (the request died
        mid-tree) and are discarded with it: 0 for a request that
        completed, and for one this box never saw.

        The platform calls this for every box of a request's trees when
        the request returns or raises; whoever drives a box directly
        owns the lifetime of what they create and may call it too.
        """
        key = (app, request_id)
        state = self._requests.pop(key, None)
        for stream in [s for s in self._reassemblers if s[:2] == key]:
            del self._reassemblers[stream]
        return len(state.partials) if state is not None else 0

    # -- internals -----------------------------------------------------------

    def _binding(self, app: str) -> AppBinding:
        binding = self._apps.get(app)
        if binding is None:
            raise KeyError(f"no app {app!r} registered on box {self.box_id}")
        return binding

    def _state(self, app: str, request_id: str) -> RequestState:
        key = (app, request_id)
        state = self._requests.get(key)
        if state is None:
            state = RequestState(app=app, request_id=request_id)
            self._requests[key] = state
        return state

    def _intake(self, binding: AppBinding, state: RequestState, source: str,
                value: Any) -> Optional[AggregateReady]:
        """Fold one partial from ``source`` into ``state`` (the caller
        resolved both once per delivery); emit if it completes it."""
        if source in state.processed_sources or source in state.sources:
            return None
        state.partials.append(value)
        state.sources.append(source)
        self._m_partials.inc()
        if state.emitted or not state.complete:
            return None
        return self._emit(binding, state)

    def _emit(self, binding: AppBinding,
              state: RequestState) -> AggregateReady:
        """Merge ``state``'s buffered partials into one aggregate.

        Merge first, then mutate: a function or codec that raises (a
        request dying inside a merge) leaves the state as it was.
        """
        tracer = get_tracer()
        span_id = tracer.begin(
            "box.emit", self.clock, layer="aggbox", box=self.box_id,
            app=state.app, request=state.request_id,
            origin=self.trace_origin, partials=len(state.partials),
        ) if tracer.enabled else 0
        try:
            value = tree_aggregate(binding.function, state.partials)
            payload = binding.serialise(value)
        finally:
            if span_id:
                tracer.end(span_id, self.clock)
        state.processed_sources.extend(state.sources)
        state.partials = []
        state.sources = []
        state.emitted = True
        return AggregateReady(
            app=state.app,
            request_id=state.request_id,
            value=value,
            payload=payload,
            sources=list(state.processed_sources),
        )

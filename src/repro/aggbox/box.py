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
from repro.aggbox.overload import (
    HEALTHY,
    BoxHealth,
    BoxHeartbeat,
    HealthTransition,
    OverloadPolicy,
)
from repro.obs import METRICS, get_tracer
from repro.wire.framing import ChunkReassembler


@dataclass
class AppBinding:
    """One application hosted on a box.

    Attributes:
        app: application name.
        function: its aggregation function.
        deserialise: frame payload -> Python partial result.
        serialise: Python aggregate -> frame payload.
    """

    app: str
    function: AggregationFunction
    deserialise: Callable[[bytes], Any]
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


@dataclass(frozen=True)
class ParkedPartial:
    """One partial removed from a box by :meth:`AggBoxRuntime.park_pending`.

    Carries everything needed to replay the partial elsewhere (cutover)
    or back into the same box (rollback) under its original source tag.
    """

    app: str
    request_id: str
    source: str
    value: Any


class AggBoxRuntime:
    """Hosts aggregation functions and merges partial results.

    Constructed with an :class:`repro.aggbox.overload.OverloadPolicy`,
    the runtime bounds its per-app pending queues and runs the
    :class:`repro.aggbox.overload.BoxHealth` state machine over them;
    without one (the default) queues are unbounded and the box always
    reports ``healthy``.  ``clock`` is the virtual time stamped onto
    health transitions and heartbeats -- the hosting platform advances
    it alongside its own clock.
    """

    def __init__(self, box_id: str,
                 policy: Optional[OverloadPolicy] = None) -> None:
        self.box_id = box_id
        self.clock = 0.0
        #: Platform-level request id behind the partials currently being
        #: fed (the per-request key ``request_id`` is a per-tree alias
        #: like ``<origin>@t0``).  The hosting platform sets this before
        #: each delivery; it is stamped onto the box's spans/instants so
        #: the critical-path extractor can group box work per request.
        self.trace_origin = ""
        self._apps: Dict[str, AppBinding] = {}
        #: Requests in flight: an entry leaves on :meth:`release`.
        self._requests: Dict[tuple, RequestState] = {}
        #: Partially received frames only: an entry leaves once drained.
        self._reassemblers: Dict[tuple, ChunkReassembler] = {}
        self._policy = policy
        self._health = BoxHealth(policy, owner=box_id) \
            if policy is not None else None
        # Registry metrics survive METRICS.reset() (values zero in
        # place), so caching the objects here is safe and keeps the
        # per-partial path to one method call per metric.
        self._m_partials = METRICS.counter("aggbox.partials")
        self._m_queue = METRICS.histogram("aggbox.queue_depth")
        self._m_flushes = METRICS.counter("aggbox.flushes")
        #: Buffered (not yet folded) partials per app.
        self._pending: Dict[str, int] = {}
        #: Delta aggregates emitted by pressure-relief partial flushes;
        #: the host drains these and forwards them upstream.
        self._shed_outbox: List[AggregateReady] = []
        self.flushes = 0   #: cumulative pressure-relief partial flushes

    # -- overload control -----------------------------------------------------

    @property
    def policy(self) -> Optional[OverloadPolicy]:
        return self._policy

    @property
    def health(self) -> str:
        """Current health state (always ``healthy`` when unbounded)."""
        return self._health.state if self._health is not None else HEALTHY

    @property
    def health_transitions(self) -> List[HealthTransition]:
        return list(self._health.transitions) if self._health else []

    def pending_count(self, app: Optional[str] = None) -> int:
        """Buffered partials for ``app`` (or across all apps)."""
        if app is not None:
            return self._pending.get(app, 0)
        return sum(self._pending.values())

    def heartbeat(self, at: Optional[float] = None) -> BoxHeartbeat:
        """The health report this box exports to the platform."""
        return BoxHeartbeat(
            box_id=self.box_id,
            at=self.clock if at is None else at,
            state=self.health,
            pending=self.pending_count(),
            max_pending=self._policy.max_pending if self._policy else 0,
            flushes=self.flushes,
        )

    def mark_failed(self) -> None:
        """Drive the health machine into ``failed`` (box crash)."""
        if self._health is not None:
            self._health.fail(self.clock)

    def mark_recovered(self) -> None:
        if self._health is not None:
            self._health.recover(self.clock)

    def drain_shed(self) -> List[AggregateReady]:
        """Delta aggregates produced by partial flushes since last drain.

        The host must forward each upstream (with a fresh source tag --
        deltas are *additional* inputs to the parent, not replacements).
        """
        out = self._shed_outbox
        self._shed_outbox = []
        return out

    # -- application management ---------------------------------------------

    def register_app(self, binding: AppBinding) -> None:
        if binding.app in self._apps:
            raise ValueError(f"app {binding.app!r} already registered")
        self._apps[binding.app] = binding

    def apps(self) -> List[str]:
        return sorted(self._apps)

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
        if state.partials:
            return self._maybe_emit(state)
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

        With an :class:`OverloadPolicy`, a submit that would push the
        app's pending queue past its bound first frees space by
        partially flushing the most-loaded request into
        :meth:`drain_shed`; the partial itself is always accepted.
        """
        self._binding(app)
        state = self._state(app, request_id)
        if source in state.processed_sources or source in state.sources:
            return None
        if self._policy is not None and \
                self._pending.get(app, 0) >= self._policy.max_pending:
            # A full queue holds at least one partial, so relieve always
            # has a request to flush.
            self._shed_outbox.append(self.relieve(app))
        state.partials.append(value)
        state.sources.append(source)
        self._pending[app] = self._pending.get(app, 0) + 1
        self._m_partials.inc()
        self._m_queue.observe(self._pending[app])
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("box.partial", self.clock, layer="aggbox",
                           box=self.box_id, app=app, request=request_id,
                           origin=self.trace_origin, source=source,
                           pending=self._pending[app])
        self._observe(app)
        return self._maybe_emit(state)

    def submit_chunk(self, app: str, request_id: str, source: str,
                     chunk: bytes) -> Optional[AggregateReady]:
        """Deliver raw bytes; frames are reassembled across chunks.

        Each completed frame is deserialised with the application's codec
        and treated as one partial result from ``source``.
        """
        binding = self._binding(app)
        key = (app, request_id, source)
        reassembler = self._reassemblers.pop(key, None) or ChunkReassembler()
        frames = reassembler.feed(chunk)
        if reassembler.pending_bytes:
            self._reassemblers[key] = reassembler
        result = None
        for frame_payload in frames:
            value = binding.deserialise(frame_payload)
            emitted = self.submit_partial(app, request_id, source, value)
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
        return self._emit(state)

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

        Drops its collection state, its half-received frames and any
        of its flush deltas still waiting for :meth:`drain_shed`.
        Partials still buffered (the request died mid-tree) come off
        the app's pending queue and health is re-observed, so no box
        stays ``pressured`` on the strength of a dead request.  Returns
        how many such partials were discarded: 0 for a request that
        completed, and for one this box never saw.

        The platform calls this for every box of a request's trees when
        the request returns or raises; whoever drives a box directly
        owns the lifetime of what they create and may call it too.
        """
        key = (app, request_id)
        state = self._requests.pop(key, None)
        for stream in [s for s in self._reassemblers if s[:2] == key]:
            del self._reassemblers[stream]
        self._shed_outbox = [delta for delta in self._shed_outbox
                             if (delta.app, delta.request_id) != key]
        if state is None or not state.partials:
            return 0
        self._pending[app] -= len(state.partials)
        self._observe(app)
        return len(state.partials)

    def park_pending(self, app: str, request_id: str) -> List[ParkedPartial]:
        """Remove one request's buffered partials, *without* folding them.

        The drain phase of a mid-request migration
        (:meth:`repro.core.recovery.InFlightRequest.migrate_box`) calls
        this: the returned partials are no longer this box's
        responsibility and will be replayed -- into the destination on
        cutover, or back into this box on rollback.  Unlike
        :meth:`relieve`, parked sources are **not** moved to the
        duplicate-suppression set and the expected count is untouched,
        so a replay under the original source tags is accepted exactly
        once wherever it lands.
        """
        state = self._requests.get((app, request_id))
        if state is None or not state.partials:
            return []
        parked = [
            ParkedPartial(app=app, request_id=request_id, source=source,
                          value=value)
            for source, value in zip(state.sources, state.partials)
        ]
        self._pending[app] -= len(state.partials)
        state.partials = []
        state.sources = []
        self._observe(app)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("box.park", self.clock, layer="aggbox",
                           box=self.box_id, origin=self.trace_origin,
                           parked=len(parked))
        return parked

    def relieve(self, app: str) -> Optional[AggregateReady]:
        """Force one pressure-relief partial flush for ``app``.

        The most-loaded pending request merges its buffered partials
        into a *delta* aggregate (returned for upstream forwarding) and
        its expected count drops by the partials folded, so the final
        emission still fires when the remainder arrives.  Exactness is
        preserved: folded sources move to the duplicate-suppression set.
        Returns None when nothing is buffered.
        """
        state = self._most_loaded(app)
        if state is None:
            return None
        return self._partial_flush(state)

    # -- internals -----------------------------------------------------------

    def _most_loaded(self, app: str) -> Optional[RequestState]:
        """The app's pending request holding the most partials."""
        best: Optional[RequestState] = None
        for (state_app, _rid), state in sorted(self._requests.items()):
            if state_app != app or not state.partials:
                continue
            if best is None or len(state.partials) > len(best.partials):
                best = state
        return best

    def _partial_flush(self, state: RequestState) -> AggregateReady:
        """Emit buffered partials as a delta, freeing queue space.

        Unlike :meth:`flush` this also reduces the expected count by the
        partials folded, so the request still auto-completes (and the
        ``emitted`` flag is untouched -- the request stays pending).
        """
        flushed = len(state.partials)
        delta = self._fold(state, "box.flush")
        if state.expected is not None:
            state.expected = max(0, state.expected - flushed)
        self.flushes += 1
        self._m_flushes.inc()
        return delta

    def _observe(self, app: str) -> None:
        if self._health is not None:
            worst = max(self._pending.values(), default=0)
            self._health.observe(worst, at=self.clock)

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

    def _maybe_emit(self, state: RequestState) -> Optional[AggregateReady]:
        if state.emitted or not state.complete:
            return None
        return self._emit(state)

    def _emit(self, state: RequestState) -> AggregateReady:
        ready = self._fold(state, "box.emit")
        state.emitted = True
        return ready

    def _fold(self, state: RequestState, span: str) -> AggregateReady:
        """Merge ``state``'s buffered partials into one aggregate.

        Merge first, then mutate: a function or codec that raises (a
        request dying inside a merge) leaves the state as it was, and
        the caller's own bookkeeping runs only once this has returned.
        """
        binding = self._binding(state.app)
        tracer = get_tracer()
        span_id = tracer.begin(
            span, self.clock, layer="aggbox", box=self.box_id,
            app=state.app, request=state.request_id,
            origin=self.trace_origin, partials=len(state.partials),
        ) if tracer.enabled else 0
        try:
            value = tree_aggregate(binding.function, state.partials)
            payload = binding.serialise(value)
        finally:
            if span_id:
                tracer.end(span_id, self.clock)
        self._pending[state.app] = \
            self._pending.get(state.app, 0) - len(state.partials)
        state.processed_sources.extend(state.sources)
        state.partials = []
        state.sources = []
        self._observe(state.app)
        return AggregateReady(
            app=state.app,
            request_id=state.request_id,
            value=value,
            payload=payload,
            sources=list(state.processed_sources),
        )

"""Differential oracle for the agg box's intake path.

:class:`FrozenBox` is a verbatim copy of ``AggBoxRuntime``'s intake
(``submit_chunk`` -> ``submit_partial`` -> ``_maybe_emit`` -> ``_emit``)
and the request lifecycle around it, as it stood before the intake was
made to resolve an app's binding and request state once per delivery.
Tracing is left out: these tests run with the tracer off, and the
intake's records are pinned by ``tests/test_obs.py``.

Under hypothesis, random scripts of announcements, chunked deliveries
(random chunkings, several frames per stream, streams left mid-frame,
raw junk bytes), direct partials, duplicate and replayed sources,
``adjust_expected``/``flush``/``release`` calls, unknown apps, a codec
that raises and a merge that raises drive a live box and a frozen one
side by side.  After every step both must have returned the same value
or raised the same exception type with the same text, and agree on
every query the box answers (``pending_sources``, ``last_processed``,
``has_source``, ``pending_count``, ``partial_streams``,
``pending_requests``) and on how far the ``aggbox.partials`` counter
moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import AggregationFunction, SumFunction
from repro.aggbox.localtree import tree_aggregate
from repro.apps.mlgrad import VectorSumFunction, decode_vector, encode_vector
from repro.obs import METRICS
from repro.wire.framing import ChunkReassembler, frame
from repro.wire.serializer import read_float, write_float


# ---------------------------------------------------------------------------
# The frozen intake


@dataclass
class _FrozenState:
    app: str
    request_id: str
    expected: Optional[int] = None
    partials: List[Any] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
    processed_sources: List[str] = field(default_factory=list)
    emitted: bool = False

    @property
    def complete(self) -> bool:
        return self.expected is not None and \
            len(self.partials) >= self.expected


@dataclass
class _FrozenReady:
    app: str
    request_id: str
    value: Any
    payload: bytes
    sources: List[str]


class FrozenBox:
    """The box intake before one-lookup-per-delivery (tracing removed)."""

    def __init__(self, box_id: str) -> None:
        self.box_id = box_id
        self._apps: Dict[str, AppBinding] = {}
        self._requests: Dict[tuple, _FrozenState] = {}
        self._reassemblers: Dict[tuple, ChunkReassembler] = {}
        self._m_partials = METRICS.counter("aggbox.partials")

    def pending_count(self) -> int:
        return sum(len(state.partials) for state in self._requests.values())

    def register_app(self, binding: AppBinding) -> None:
        if binding.app in self._apps:
            raise ValueError(f"app {binding.app!r} already registered")
        self._apps[binding.app] = binding

    def announce(self, app: str, request_id: str, expected: int) -> None:
        if expected < 1:
            raise ValueError("expected partial count must be >= 1")
        state = self._state(app, request_id)
        if state.expected is not None and state.expected != expected:
            raise ValueError(
                f"conflicting expected counts for {app}/{request_id}: "
                f"{state.expected} vs {expected}"
            )
        state.expected = expected

    def adjust_expected(self, app: str, request_id: str, delta: int):
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
        state = self._requests.get((app, request_id))
        return state is not None and (
            source in state.sources or source in state.processed_sources)

    def submit_partial(self, app: str, request_id: str, source: str,
                       value: Any):
        self._binding(app)
        state = self._state(app, request_id)
        if source in state.processed_sources or source in state.sources:
            return None
        state.partials.append(value)
        state.sources.append(source)
        self._m_partials.inc()
        return self._maybe_emit(state)

    def submit_chunk(self, app: str, request_id: str, source: str,
                     chunk: bytes):
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
        return list(self._reassemblers)

    def pending_requests(self) -> List[_FrozenState]:
        return [s for s in self._requests.values() if not s.emitted]

    def flush(self, app: str, request_id: str):
        state = self._state(app, request_id)
        if not state.partials:
            return None
        return self._emit(state)

    def last_processed(self, app: str, request_id: str) -> List[str]:
        state = self._requests.get((app, request_id))
        return list(state.processed_sources) if state is not None else []

    def pending_sources(self, app: str, request_id: str) -> List[str]:
        state = self._requests.get((app, request_id))
        return list(state.sources) if state is not None else []

    def release(self, app: str, request_id: str) -> int:
        key = (app, request_id)
        state = self._requests.pop(key, None)
        for stream in [s for s in self._reassemblers if s[:2] == key]:
            del self._reassemblers[stream]
        return len(state.partials) if state is not None else 0

    def _binding(self, app: str) -> AppBinding:
        binding = self._apps.get(app)
        if binding is None:
            raise KeyError(f"no app {app!r} registered on box {self.box_id}")
        return binding

    def _state(self, app: str, request_id: str) -> _FrozenState:
        key = (app, request_id)
        state = self._requests.get(key)
        if state is None:
            state = _FrozenState(app=app, request_id=request_id)
            self._requests[key] = state
        return state

    def _maybe_emit(self, state: _FrozenState):
        if state.emitted or not state.complete:
            return None
        return self._emit(state)

    def _emit(self, state: _FrozenState) -> _FrozenReady:
        binding = self._binding(state.app)
        value = tree_aggregate(binding.function, state.partials)
        payload = binding.serialise(value)
        state.processed_sources.extend(state.sources)
        state.partials = []
        state.sources = []
        state.emitted = True
        return _FrozenReady(
            app=state.app,
            request_id=state.request_id,
            value=value,
            payload=payload,
            sources=list(state.processed_sources),
        )


# ---------------------------------------------------------------------------
# Apps, and what one side of the differential observes


def _picky_decode(buffer: bytes) -> float:
    """A codec that refuses negative values, mid-stream."""
    value = read_float(buffer)[0]
    if value < 0:
        raise ValueError(f"refused frame {value:g}")
    return value


class _PickyMax(AggregationFunction):
    """A merge that refuses some inputs (a request dying in ``_fold``)."""

    name = "picky-max"

    def merge(self, items):
        if 4.0 in items:
            raise ValueError("merge refused 4")
        return max(items)

    def output_bytes(self, input_sizes):
        return max(input_sizes) if input_sizes else 0.0


def _bindings() -> List[AppBinding]:
    return [
        AppBinding("sum", SumFunction(), lambda b: read_float(b)[0],
                   write_float),
        AppBinding("vec", VectorSumFunction(), decode_vector, encode_vector),
        AppBinding("picky", SumFunction(), _picky_decode, write_float),
        AppBinding("max", _PickyMax(), lambda b: read_float(b)[0],
                   write_float),
    ]


#: Registered apps plus one that no box hosts.
APPS = ("sum", "vec", "picky", "max", "ghost")
REQUESTS = ("r1", "r2")
SOURCES = ("worker:0", "worker:1", "worker:2", "box:b")


def _serialise(app: str, value: Any) -> bytes:
    return encode_vector(value) if app == "vec" else write_float(value)


def _value(app: str, n: int, width: int) -> Any:
    return [float(n)] * width if app == "vec" else float(n)


def _ready(result: Any) -> Any:
    if result is None or isinstance(result, int):
        return result
    return (result.app, result.request_id, result.value, result.payload,
            result.sources)


def _call(box, counter, method: str, *args):
    """``(outcome, partials counted)`` of one call on one box."""
    before = counter.value
    try:
        outcome = ("ok", _ready(getattr(box, method)(*args)))
    except Exception as exc:  # noqa: BLE001 - the type is what's compared
        outcome = ("raise", type(exc).__name__, str(exc))
    return outcome, counter.value - before


def _observe(box) -> tuple:
    """Everything the box answers about its state."""
    seen = []
    for app in APPS:
        for request in REQUESTS:
            seen.append((app, request, box.pending_sources(app, request),
                         box.last_processed(app, request),
                         [box.has_source(app, request, source)
                          for source in SOURCES]))
    pending = [(s.app, s.request_id, s.expected, list(s.partials),
                list(s.sources), list(s.processed_sources), s.emitted)
               for s in box.pending_requests()]
    return (seen, box.pending_count(), box.partial_streams(), pending)


# ---------------------------------------------------------------------------
# Scripts


_APP = st.sampled_from(APPS)
_REQUEST = st.sampled_from(REQUESTS)
_SOURCE = st.sampled_from(SOURCES)

_OPS = st.one_of(
    st.tuples(st.just("announce"), _APP, _REQUEST, st.integers(0, 4)),
    st.tuples(st.just("adjust_expected"), _APP, _REQUEST,
              st.integers(-3, 3)),
    # One stream: one or more frames, cut at random points, the tail
    # possibly withheld so the stream stays mid-frame.
    st.tuples(st.just("send"), _APP, _REQUEST, _SOURCE,
              st.lists(st.integers(-2, 5), min_size=1, max_size=3),
              st.integers(1, 2),
              st.lists(st.integers(1, 40), max_size=6),
              st.booleans()),
    st.tuples(st.just("raw"), _APP, _REQUEST, _SOURCE,
              st.binary(min_size=1, max_size=12)),
    st.tuples(st.just("submit_partial"), _APP, _REQUEST, _SOURCE,
              st.integers(-2, 5), st.integers(1, 2)),
    st.tuples(st.just("flush"), _APP, _REQUEST),
    st.tuples(st.just("release"), _APP, _REQUEST),
)


def _calls(op: tuple) -> List[tuple]:
    """The box calls one scripted step makes."""
    kind = op[0]
    if kind == "send":
        _, app, request, source, values, width, cuts, withhold = op
        stream = b"".join(frame(_serialise(app, _value(app, n, width)))
                          for n in values)
        points = sorted({c for c in cuts if c < len(stream)})
        bounds = [0, *points, len(stream)]
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        if withhold and len(chunks) > 1:
            chunks = chunks[:-1]
        return [("submit_chunk", app, request, source, chunk)
                for chunk in chunks]
    if kind == "raw":
        _, app, request, source, data = op
        return [("submit_chunk", app, request, source, data)]
    if kind == "submit_partial":
        _, app, request, source, n, width = op
        return [("submit_partial", app, request, source,
                 _value(app, n, width))]
    return [op]


def _boxes():
    live, frozen = AggBoxRuntime("box:test"), FrozenBox("box:test")
    for binding in _bindings():
        live.register_app(binding)
        frozen.register_app(binding)
    return live, frozen


@settings(max_examples=300)
@given(script=st.lists(_OPS, min_size=1, max_size=30))
def test_live_intake_matches_the_frozen_one(script):
    counter = METRICS.counter("aggbox.partials")
    live, frozen = _boxes()
    for op in script:
        for method, *args in _calls(op):
            # The frozen box runs first: a merge or codec that raises
            # must leave both in the same state, not just one.
            want = _call(frozen, counter, method, *args)
            got = _call(live, counter, method, *args)
            assert got == want, (method, args)
            assert _observe(live) == _observe(frozen), (method, args)


@settings(max_examples=100)
@given(values=st.lists(st.integers(0, 5), min_size=1, max_size=6),
       cuts=st.lists(st.integers(1, 60), max_size=8),
       replay=st.lists(st.integers(0, 5), max_size=6))
def test_replayed_sources_match_the_frozen_box(values, cuts, replay):
    """The recovery protocol's replays: every source resent after the
    emission it was folded into, by chunk and as a value."""
    counter = METRICS.counter("aggbox.partials")
    live, frozen = _boxes()
    sources = [f"worker:{i}" for i in range(len(values))]
    for box in (live, frozen):
        box.announce("sum", "r1", len(values))
    steps = []
    for source, n in zip(sources, values):
        stream = frame(write_float(float(n)))
        points = sorted({c for c in cuts if c < len(stream)})
        bounds = [0, *points, len(stream)]
        steps += [("submit_chunk", "sum", "r1", source, stream[a:b])
                  for a, b in zip(bounds, bounds[1:])]
    for i in replay:
        source = sources[i % len(sources)]
        steps.append(("submit_chunk", "sum", "r1", source,
                      frame(write_float(99.0))))
        steps.append(("submit_partial", "sum", "r1", source, 99.0))
    steps.append(("flush", "sum", "r1"))
    for method, *args in steps:
        want = _call(frozen, counter, method, *args)
        got = _call(live, counter, method, *args)
        assert got == want, (method, args)
        assert _observe(live) == _observe(frozen), (method, args)

"""Differential oracle for the testbed emulator's hot path.

``_FrozenResource`` and ``_FrozenEventQueue`` are verbatim copies of
``repro.cluster.emulator.Resource`` and ``repro.netsim.engine.EventQueue``
as they stood before the closure-free rewrite, less the fault methods
(``fail``/``recover``/``degrade``) the emulator no longer has.
Hypothesis drives the frozen pair and the live pair with the same
script of ``request`` / ``burst`` operations -- including requests
issued from inside a ``done`` callback and steps landing on the exact
timestamp of a pending completion -- and every observable must agree
with ``==`` on floats: the rewrite's contract is bit-identical
behaviour, not approximately equal behaviour.
"""

import heapq
import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.emulator import Resource
from repro.netsim.engine import EventQueue


class _FrozenEventQueue:
    """``EventQueue`` as of PR 15 (the parts the emulator reaches)."""

    def __init__(self, start_time=0.0):
        self._now = start_time
        self._counter = itertools.count()
        self._heap = []
        self._cancelled = set()

    @property
    def now(self):
        return self._now

    def __len__(self):
        return sum(1 for _, token, _ in self._heap
                   if token not in self._cancelled)

    def schedule(self, delay, callback):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when, callback):
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when}, clock already at {self._now}")
        token = next(self._counter)
        heapq.heappush(self._heap, (when, token, callback))
        return token

    def cancel(self, token):
        self._cancelled.add(token)

    def peek_time(self):
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self):
        self._drop_cancelled()
        if not self._heap:
            return False
        when, _token, callback = heapq.heappop(self._heap)
        self._now = when
        callback()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return executed
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed

    def _drop_cancelled(self):
        while self._heap and self._heap[0][1] in self._cancelled:
            _, token, _ = heapq.heappop(self._heap)
            self._cancelled.discard(token)


class _FrozenResource:
    """``Resource`` as of PR 15: closure + token cell + dict per item."""

    def __init__(self, queue, name, rate, servers=1):
        self._queue = queue
        self.name = name
        self.rate = rate
        self.servers = servers
        self._free = servers
        self._waiting = deque()
        self._in_service = {}
        self.busy_time = 0.0
        self.completed = 0

    def request(self, amount, done):
        if amount < 0:
            raise ValueError("amount must be >= 0")
        self._waiting.append((amount, done))
        self._pump()

    @property
    def queue_length(self):
        return len(self._waiting)

    def _pump(self):
        while self._free > 0 and self._waiting:
            amount, done = self._waiting.popleft()
            self._free -= 1
            service = amount / self.rate
            self.busy_time += service
            token_cell = []

            def finish(cb=done, cell=token_cell):
                self._free += 1
                self.completed += 1
                self._in_service.pop(cell[0], None)
                cb()
                self._pump()

            token = self._queue.schedule(service, finish)
            token_cell.append(token)
            self._in_service[token] = (amount, done, self._queue.now, service)


# -- scripts ------------------------------------------------------------------

#: Grid amounts and times collide often (rate 1: a 1.0 request started at
#: 0.5 completes exactly when a step stamped 1.5 fires); the free floats
#: make ``amount / rate`` produce inexact quotients.
_AMOUNTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
_GAPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.5])

#: A request is ``(amount, children)``; its ``done`` re-requests every
#: child on the same resource (nested up to three deep).
_REQUESTS = st.recursive(
    st.tuples(_AMOUNTS, st.just(())),
    lambda children: st.tuples(
        _AMOUNTS, st.lists(children, max_size=2).map(tuple)),
    max_leaves=4,
)

_OPS = st.one_of(
    st.tuples(st.just("request"), _REQUESTS),
    st.tuples(st.just("burst"), st.lists(_REQUESTS, min_size=2, max_size=10)),
)

_SCRIPTS = st.lists(st.tuples(_GAPS, _OPS), min_size=1, max_size=25)


def _play(queue_cls, resource_cls, servers, rate, script):
    """Run ``script``; return everything observable, in event order."""
    queue = queue_cls()
    resource = resource_cls(queue, "probe", rate, servers=servers)
    log = []
    labels = itertools.count()

    def observe(what):
        log.append((what, queue.now, resource.busy_time, resource.completed,
                    resource.queue_length))

    def submit(spec):
        amount, children = spec
        label = next(labels)

        def done():
            observe(("done", label))
            for child in children:
                submit(child)
                # Seen from inside the callback: did the child start on
                # the server this completion freed, or queue behind work?
                observe(("resubmitted", label))

        resource.request(amount, done)

    def step(index, op, arg):
        for spec in (arg,) if op == "request" else arg:
            submit(spec)
        observe(("step", index))

    # Every step is scheduled up front, so step tokens are below all
    # completion tokens: a step stamped at a completion's time runs first.
    at = 0.0
    for index, (gap, (op, arg)) in enumerate(script):
        at += gap
        queue.schedule_at(at, lambda i=index, o=op, a=arg: step(i, o, a))
    executed = [queue.run(until=at / 2), queue.run()]
    observe("drained")
    return log, executed, queue.now, len(queue)


@pytest.mark.parametrize("servers", [1, 2, 8])
@settings(max_examples=150)
@given(script=_SCRIPTS, rate=st.sampled_from([1.0, 3.0, 1e9 / 8]))
def test_live_emulator_matches_the_frozen_one_exactly(servers, rate, script):
    frozen = _play(_FrozenEventQueue, _FrozenResource, servers, rate, script)
    live = _play(EventQueue, Resource, servers, rate, script)
    assert live == frozen


@pytest.mark.parametrize("servers", [1, 2, 8])
def test_script_that_hits_every_branch(servers):
    """A fixed script, so the branches are covered whatever hypothesis
    draws: queued work behind a full pool, a step on a completion's
    timestamp, zero-length work, and a nested re-request behind waiting
    work."""
    leaf = (1.0, ())
    script = [
        (0.0, ("burst", [(1.0, (leaf, (0.0, ())))] * (servers + 3))),
        (1.0, ("request", (0.0, (leaf,)))),   # lands on the completions
        (0.5, ("request", leaf)),
        (1.5, ("burst", [leaf] * (2 * servers))),
    ]
    frozen = _play(_FrozenEventQueue, _FrozenResource, servers, 1.0, script)
    live = _play(EventQueue, Resource, servers, 1.0, script)
    assert live == frozen
    kinds = {entry[0][0] for entry in frozen[0] if isinstance(entry[0], tuple)}
    assert kinds == {"done", "resubmitted", "step"}
    assert max(entry[4] for entry in frozen[0]) > 0   # work really queued

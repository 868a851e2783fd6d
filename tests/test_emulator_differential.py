"""Differential oracle for the testbed emulator's hot path.

``_FrozenResource`` and ``_FrozenEventQueue`` are verbatim copies of
``repro.cluster.emulator.Resource`` and ``repro.netsim.engine.EventQueue``
as they stood before the closure-free rewrite.  Hypothesis drives the
frozen pair and the live pair with the same script of ``request`` /
``fail`` / ``recover`` / ``degrade`` operations -- including requests
issued from inside a ``done`` callback and faults landing on the exact
timestamp of a pending completion, on either side of its tie-break --
and every observable must agree with ``==`` on floats: the rewrite's
contract is bit-identical behaviour, not approximately equal behaviour.
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
        self._base_rate = rate
        self.servers = servers
        self._free = servers
        self._waiting = deque()
        self._in_service = {}
        self._down = False
        self.busy_time = 0.0
        self.completed = 0
        self.failures = 0

    def request(self, amount, done):
        if amount < 0:
            raise ValueError("amount must be >= 0")
        self._waiting.append((amount, done))
        self._pump()

    @property
    def queue_length(self):
        return len(self._waiting)

    @property
    def is_down(self):
        return self._down

    def fail(self):
        if self._down:
            return
        self._down = True
        self.failures += 1
        now = self._queue.now
        parked = sorted(self._in_service.items())
        for token, (_amount, _done, started, service) in parked:
            self._queue.cancel(token)
            self.busy_time -= service - (now - started)
        for _token, (amount, done, _started, _service) in reversed(parked):
            self._waiting.appendleft((amount, done))
        self._in_service.clear()
        self._free = self.servers

    def recover(self):
        self._down = False
        self.rate = self._base_rate
        self._pump()

    def degrade(self, factor):
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self.rate = self._base_rate / factor

    def _pump(self):
        while not self._down and self._free > 0 and self._waiting:
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
#: make ``amount / rate`` under ``degrade`` produce inexact quotients.
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
    st.tuples(st.just("request"), _REQUESTS),
    st.tuples(st.just("burst"), st.lists(_REQUESTS, min_size=2, max_size=10)),
    st.tuples(st.just("fail"), st.none()),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.just("degrade"), st.sampled_from([1.0, 1.5, 3.0, 7.0])),
    # Scheduled *now* for later: the fault's token is above those of
    # completions already dispatched and below those dispatched after,
    # so exact-timestamp ties are hit from both sides.
    st.tuples(st.just("fail_in"), _GAPS),
    st.tuples(st.just("recover_in"), _GAPS),
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
                    resource.failures, resource.queue_length,
                    resource.is_down, resource.rate))

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

    def apply(op, arg):
        if op == "request":
            submit(arg)
        elif op == "burst":
            for spec in arg:
                submit(spec)
        elif op == "degrade":
            resource.degrade(arg)
        elif op in ("fail", "recover"):
            getattr(resource, op)()
        else:   # fail_in / recover_in
            fault = getattr(resource, op[:-3])

            def later():
                fault()
                observe((op, "fired"))

            queue.schedule(arg, later)

    def step(index, op, arg):
        apply(op, arg)
        observe(("step", index))

    # Every step is scheduled up front, so step tokens are below all
    # completion tokens: a step stamped at a completion's time runs first.
    at = 0.0
    for index, (gap, (op, arg)) in enumerate(script):
        at += gap
        queue.schedule_at(at, lambda i=index, o=op, a=arg: step(i, o, a))
    executed = [queue.run(until=at / 2), queue.run()]
    observe("drained")
    # Work parked behind a fault that never cleared replays here.
    resource.recover()
    executed.append(queue.run())
    observe("end")
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
    draws: queued work behind a full pool, a fault on a completion's
    timestamp from both tie-break sides, degrade with a backlog, a
    nested re-request behind waiting work, and a fault left standing."""
    leaf = (1.0, ())
    script = [
        (0.0, ("burst", [(1.0, (leaf, (0.0, ())))] * (servers + 3))),
        (0.5, ("fail_in", 0.5)),          # lands on the 1.0 completions
        (0.0, ("degrade", 3.0)),
        (0.5, ("fail", None)),            # step token: before completions
        (0.0, ("request", (0.0, (leaf,)))),
        (1.0, ("recover", None)),
        (0.0, ("recover_in", 2.5)),
        (1.5, ("burst", [leaf] * (2 * servers))),
        (1.0, ("fail", None)),
    ]
    frozen = _play(_FrozenEventQueue, _FrozenResource, servers, 1.0, script)
    live = _play(EventQueue, Resource, servers, 1.0, script)
    assert live == frozen
    kinds = {entry[0][0] for entry in frozen[0] if isinstance(entry[0], tuple)}
    assert kinds == {"done", "resubmitted", "step", "fail_in", "recover_in"}
    assert frozen[0][-1][4] >= 2          # both faults really fired

"""A minimal discrete-event engine.

The flow simulator has its own specialised loop (rates change globally at
each event), but the testbed emulator and the agg-box scheduler need a
classic event queue: timestamped callbacks executed in order, with a
stable tie-break so runs are deterministic.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import inf
from typing import Callable, List, Optional, Tuple


class EventQueue:
    """Priority queue of ``(time, callback)`` events with a virtual clock.

    Events scheduled for the same time fire in insertion order.  The clock
    only moves forward; scheduling an event in the past raises.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the event's token, its insertion-order tie-break.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        token = next(self._counter)
        heappush(self._heap, (self._now + delay, token, callback))
        return token

    def schedule_at(self, when: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when}, clock already at {self._now}"
            )
        token = next(self._counter)
        heappush(self._heap, (when, token, callback))
        return token

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        if not self._heap:
            return False
        when, _token, callback = heappop(self._heap)
        self._now = when
        callback()
        return True

    def step_batch(self) -> int:
        """Run every event stamped with the next timestamp, as one batch.

        Coalesces simultaneous events: the clock advances once and all
        callbacks scheduled at that time run in insertion order --
        including events a callback schedules *at* the (now current)
        batch time.  Returns the number executed (0 when idle).
        """
        if not self._heap:
            return 0
        when = self._heap[0][0]
        executed = 0
        while True:
            if not self._heap or self._heap[0][0] > when:
                return executed
            _, _token, callback = heappop(self._heap)
            self._now = when
            callback()
            executed += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue, optionally stopping at time ``until``.

        Returns the number of events executed.  When ``until`` is given the
        clock is advanced to exactly ``until`` even if no event fires there
        (not when ``max_events`` ran out first: events may still be due).
        """
        heap = self._heap
        limit = inf if until is None else until
        budget = inf if max_events is None else max_events
        executed = 0
        while executed < budget:
            if not heap or heap[0][0] > limit:
                break
            self._now, _token, callback = heappop(heap)
            callback()
            executed += 1
        else:
            return executed
        if until is not None and until > self._now:
            self._now = until
        return executed

"""Queueing resources for the testbed emulator.

A :class:`Resource` is a FIFO queue in front of one or more rate
servers: NICs are single-server resources whose work is bytes, CPU pools
are multi-server resources whose work is core-seconds.  A
:class:`TransferChain` runs a piece of work through several resources in
sequence (e.g. sender NIC then receiver NIC), which pipelines across
independent transfers exactly like store-and-forward hops.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.netsim.engine import EventQueue
from repro.obs import METRICS


class Resource:
    """A FIFO multi-server rate resource that serves at a fixed ``rate``."""

    def __init__(self, queue: EventQueue, name: str, rate: float,
                 servers: int = 1) -> None:
        if rate <= 0:
            raise ValueError(f"resource {name!r} needs rate > 0")
        if servers < 1:
            raise ValueError(f"resource {name!r} needs servers >= 1")
        self._queue = queue
        self.name = name
        self.rate = rate
        self.servers = servers
        self._waiting: Deque[Tuple[float, Callable[[], None]]] = deque()
        #: Each server's ``done`` while it serves, ``None`` while it idles.
        self._slots: List[Optional[Callable[[], None]]] = [None] * servers
        self._idle = list(range(servers))
        #: Each server's completion callback, bound once, not per item.
        self._finishers = [partial(self._pump, slot)
                           for slot in range(servers)]
        self.busy_time = 0.0
        self.completed = 0

    def request(self, amount: float, done: Callable[[], None]) -> None:
        """Enqueue ``amount`` units of work; ``done`` fires on completion."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        idle = self._idle
        if not idle or self._waiting:
            self._waiting.append((amount, done))
            if idle:   # freed by the completion whose ``done`` is calling
                self._pump()
            return
        # _pump's loop body again: an idle resource skips the deque.
        slot = idle.pop()
        service = amount / self.rate
        self.busy_time += service
        self._queue.schedule(service, self._finishers[slot])
        self._slots[slot] = done

    def _pump(self, finished: Optional[int] = None) -> None:
        """Retire the item on server ``finished`` (when given), then
        serve waiting work on idle servers.  A completion is scheduled
        (and its token drawn) at dispatch, never at enqueue: tokens break
        same-time ties, so drawing them earlier would reorder them."""
        slots, idle, waiting = self._slots, self._idle, self._waiting
        if finished is not None:
            done = slots[finished]
            slots[finished] = None
            idle.append(finished)
            self.completed += 1
            done()
        queue = self._queue
        while waiting and idle:
            amount, done = waiting.popleft()
            slot = idle.pop()
            service = amount / self.rate
            self.busy_time += service
            queue.schedule(service, self._finishers[slot])
            slots[slot] = done


class TransferChain:
    """Run work through resources in sequence, then call ``done``.

    One chain is one transfer: :meth:`start` it once.
    """

    __slots__ = ("stages", "_next", "_done")

    def __init__(self, stages: Sequence[Tuple[Resource, float]]) -> None:
        self.stages = stages
        self._next = 0

    def start(self, done: Callable[[], None]) -> None:
        self._done = done
        self._advance()

    def _advance(self) -> None:
        index = self._next
        left = len(self.stages) - index
        if left < 1:
            self._done()   # a chain with no stages at all
            return
        self._next = index + 1
        resource, amount = self.stages[index]
        resource.request(amount, self._done if left == 1 else self._advance)


class Barrier:
    """Invoke a callback after ``count`` arms complete."""

    __slots__ = ("_remaining", "_done")

    def __init__(self, count: int, done: Callable[[], None]) -> None:
        if count < 1:
            raise ValueError("barrier needs count >= 1")
        self._remaining = count
        self._done = done

    def arm(self) -> Callable[[], None]:
        return self._arrive

    def _arrive(self) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._done()
        elif self._remaining < 0:
            raise RuntimeError("barrier over-released")


def publish_run(work: str, count: int, resources: Iterable[Resource],
                events: int) -> None:
    """Account one finished emulation run in ``METRICS`` -- called once
    per run, so the hot path carries no telemetry at all."""
    METRICS.counter(f"cluster.{work}").inc(count)
    METRICS.counter("cluster.resource.dispatches").inc(
        sum(resource.completed for resource in resources))
    METRICS.counter("cluster.engine_events").inc(events)

"""A timed agg box: functional aggregation under CPU contention.

Combines the functional :class:`repro.aggbox.box.AggBoxRuntime` (what is
computed) with the :class:`repro.aggbox.scheduler.WfqExecutor` (when the
CPU gets around to it): every submitted partial result costs
``function.cpu_seconds(bytes)`` of core time, scheduled across the box's
applications by weighted fair queuing.  The result is per-request
*aggregation latency* under co-location -- the latency-side complement
of the CPU-share Figs. 25/26.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.scheduler import WfqExecutor
from repro.netsim.engine import EventQueue


@dataclass
class RequestTiming:
    """Latency breakdown of one aggregated request on a box."""

    app: str
    request_id: str
    first_arrival: float
    emitted_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.emitted_at is None:
            return None
        return self.emitted_at - self.first_arrival


class TimedAggBox:
    """An agg box whose merges take simulated CPU time, at
    :data:`~repro.aggbox.functions.DEFAULT_CORE_RATE` per core."""

    def __init__(self, queue: EventQueue, cores: int = 16,
                 adaptive: bool = True) -> None:
        self._queue = queue
        self._runtime = AggBoxRuntime("box:timed")
        self._executor = WfqExecutor(queue, threads=cores,
                                     adaptive=adaptive)
        self._timings: Dict[tuple, RequestTiming] = {}
        self._emit_callbacks: Dict[tuple, Callable] = {}

    @property
    def executor(self) -> WfqExecutor:
        return self._executor

    def register_app(self, binding: AppBinding,
                     target_share: float = 1.0) -> None:
        self._runtime.register_app(binding)
        self._executor.register_app(binding.app, target_share)

    def announce(self, app: str, request_id: str, expected: int,
                 on_emit: Optional[Callable[[Any, float], None]] = None
                 ) -> None:
        """Expect ``expected`` partials; ``on_emit(value, time)`` fires
        when the aggregate is ready."""
        self._runtime.announce(app, request_id, expected)
        if on_emit is not None:
            self._emit_callbacks[(app, request_id)] = on_emit

    def submit(self, app: str, request_id: str, source: str,
               value: Any, nbytes: float) -> None:
        """One partial result arrives; merging it costs CPU time."""
        key = (app, request_id)
        if key not in self._timings:
            self._timings[key] = RequestTiming(
                app=app, request_id=request_id,
                first_arrival=self._queue.now,
            )
        binding = self._runtime.binding(app)
        duration = binding.function.cpu_seconds(nbytes)

        def merge_done() -> None:
            ready = self._runtime.submit_partial(app, request_id, source,
                                                 value)
            if ready is None:
                return
            timing = self._timings[key]
            timing.emitted_at = self._queue.now
            callback = self._emit_callbacks.get(key)
            if callback is not None:
                callback(ready.value, self._queue.now)

        self._executor.submit(app, duration, merge_done)

    def timings(self, app: Optional[str] = None) -> List[RequestTiming]:
        return [
            t for t in self._timings.values()
            if app is None or t.app == app
        ]

    def latencies(self, app: str) -> List[float]:
        return [
            t.latency for t in self.timings(app) if t.latency is not None
        ]

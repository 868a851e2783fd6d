"""Cooperative task scheduling with (adaptive) weighted fair queuing.

§3.2.1: an agg box keeps one task queue per application and offers each
freed thread to application *i* with probability proportional to its
weight.  Fixed weights starve applications with long tasks (the paper's
Fig. 25: a Solr task runs ~30 ms, a Hadoop task ~1 ms, so 50/50 weights
yield a lopsided CPU split).  The *adaptive* scheduler periodically
re-derives weights from measured task durations:

    w_i = (s_i / t_i) / sum_j (s_j / t_j)

where ``s_i`` is application i's target share and ``t_i`` a moving
average of its task execution time -- restoring the target CPU shares
(Fig. 26).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netsim.engine import EventQueue
from repro.obs import METRICS
from repro.obs.live.series import ewma_step

#: Smoothing weight of the moving average of task durations that the
#: adaptive weights divide by (both schedulers).
DURATION_ALPHA = 0.2


#: Relative uniform jitter applied to every task duration.
JITTER = 0.1
#: Thread-pool size of the modelled box.
THREADS = 16
#: Seconds between adaptive weight re-computations.
ADAPT_INTERVAL = 0.5
#: CPU-share sampling window of the time series, in seconds.
SAMPLE_INTERVAL = 1.0


@dataclass(frozen=True)
class WorkloadSpec:
    """One application's task stream offered to the scheduler.

    Attributes:
        app: application name.
        task_seconds: duration of one aggregation task on one core.
        target_share: desired CPU fraction (the ``s_i`` above).
    """

    app: str
    task_seconds: float
    target_share: float

    def __post_init__(self) -> None:
        if self.task_seconds <= 0:
            raise ValueError("task_seconds must be positive")
        if not 0.0 < self.target_share <= 1.0:
            raise ValueError("target_share must be in (0, 1]")


@dataclass
class AppShare:
    """Measured CPU usage of one application."""

    app: str
    cpu_seconds: float = 0.0
    tasks_run: int = 0

    def share_of(self, total: float) -> float:
        return self.cpu_seconds / total if total > 0 else 0.0


@dataclass
class SchedulerResult:
    """Outcome of a scheduler run."""

    duration: float
    shares: Dict[str, AppShare]
    #: Per-window CPU share samples: list of (time, {app: share}).
    timeline: List[Tuple[float, Dict[str, float]]]

    def overall_share(self, app: str) -> float:
        total = sum(s.cpu_seconds for s in self.shares.values())
        return self.shares[app].share_of(total)


class WfqExecutor:
    """Dynamic weighted-fair executor over an event queue.

    The :class:`TaskScheduler` models *backlogged* synthetic workloads
    (Figs. 25/26); this executor accepts tasks as they arrive -- it is
    what a live agg box runs.  Each application has a FIFO queue and a
    weight; a freed thread picks the non-empty queue with the largest
    weighted deficit (deterministic WFQ rather than the paper's
    probabilistic offer, so tests are exact); adaptive mode re-derives
    weights from a moving average of measured task durations exactly
    like the paper's scheduler.
    """

    def __init__(self, queue: EventQueue, threads: int = 16,
                 adaptive: bool = True) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self._queue = queue
        self._threads_free = threads
        self.threads = threads
        self._adaptive = adaptive
        self._targets: Dict[str, float] = {}
        self._mean_duration: Dict[str, Optional[float]] = {}
        self._pending: Dict[str, List] = {}
        self._served: Dict[str, float] = {}  # cpu-seconds granted
        self.cpu_seconds: Dict[str, float] = {}

    def register_app(self, app: str, target_share: float = 1.0) -> None:
        if app in self._targets:
            raise ValueError(f"app {app!r} already registered")
        if target_share <= 0:
            raise ValueError("target_share must be positive")
        self._targets[app] = target_share
        self._mean_duration[app] = None
        self._pending[app] = []
        self._served[app] = 0.0
        self.cpu_seconds[app] = 0.0

    def submit(self, app: str, duration: float, done) -> None:
        """Queue one task of ``duration`` cpu-seconds for ``app``."""
        if app not in self._targets:
            raise KeyError(f"app {app!r} not registered")
        if duration < 0:
            raise ValueError("duration must be >= 0")
        self._pending[app].append((duration, done))
        self._pump()

    # -- internals -----------------------------------------------------------

    def _weight(self, app: str) -> float:
        target = self._targets[app]
        if not self._adaptive:
            return target
        measured = self._mean_duration[app]
        if not measured:
            return target
        return target / measured

    def _pick(self) -> Optional[str]:
        candidates = [a for a, q in self._pending.items() if q]
        if not candidates:
            return None
        # Deterministic analogue of the paper's probabilistic offer:
        # every *pick* costs 1/weight, so fixed weights are count-fair
        # (the Fig. 25 pathology: long tasks hog CPU time) and adaptive
        # weights (target / mean duration) become time-fair (Fig. 26).
        def deficit(app: str) -> float:
            weight = self._weight(app)
            return self._served[app] / weight if weight > 0 else float("inf")

        return min(candidates, key=lambda a: (deficit(a), a))

    def _pump(self) -> None:
        while self._threads_free > 0:
            app = self._pick()
            if app is None:
                return
            duration, done = self._pending[app].pop(0)
            self._threads_free -= 1
            self._served[app] += 1.0  # one pick (see _pick)
            self.cpu_seconds[app] += duration
            self._mean_duration[app] = ewma_step(
                self._mean_duration[app], duration, DURATION_ALPHA)

            def finish(cb=done):
                self._threads_free += 1
                cb()
                self._pump()

            self._queue.schedule(duration, finish)


class TaskScheduler:
    """Discrete-event model of the cooperative agg-box scheduler.

    Applications are assumed backlogged (their queues never empty), which
    matches the paper's co-location experiment: both Solr and Hadoop
    continuously offer aggregation work.  ``adaptive`` re-derives the
    weights from measured task times (Fig. 26) instead of keeping them at
    the target shares (Fig. 25).
    """

    def __init__(self, workloads: Sequence[WorkloadSpec],
                 adaptive: bool = False, seed: int = 1) -> None:
        if not workloads:
            raise ValueError("need at least one workload")
        names = [w.app for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate application names")
        total_share = sum(w.target_share for w in workloads)
        if total_share <= 0:
            raise ValueError("target shares must sum to a positive value")
        self._workloads = {w.app: w for w in workloads}
        self._adaptive = adaptive
        self._rng = random.Random(seed)
        # Normalise target shares.
        self._targets = {
            w.app: w.target_share / total_share for w in workloads
        }

    def run(self, duration: float = 60.0) -> SchedulerResult:
        if duration <= 0:
            raise ValueError("duration must be positive")
        queue = EventQueue()
        weights = dict(self._targets)  # initial weights = target shares
        mean_took: Dict[str, Optional[float]] = {
            a: None for a in self._workloads}
        shares = {a: AppShare(app=a) for a in self._workloads}
        window: Dict[str, float] = {a: 0.0 for a in self._workloads}
        timeline: List[Tuple[float, Dict[str, float]]] = []

        def pick_app() -> str:
            apps = sorted(weights)
            total = sum(weights[a] for a in apps)
            point = self._rng.random() * total
            acc = 0.0
            for app in apps:
                acc += weights[app]
                if point <= acc:
                    return app
            return apps[-1]

        def task_duration(app: str) -> float:
            jitter = 1.0 + JITTER * (2.0 * self._rng.random() - 1.0)
            return self._workloads[app].task_seconds * jitter

        def run_thread() -> None:
            """One thread picks a task, runs it to completion, repeats."""
            if queue.now >= duration:
                return
            app = pick_app()
            took = task_duration(app)
            end = min(queue.now + took, duration)
            used = end - queue.now
            shares[app].cpu_seconds += used
            shares[app].tasks_run += 1
            window[app] += used
            mean_took[app] = ewma_step(mean_took[app], took, DURATION_ALPHA)
            queue.schedule(took, run_thread)

        def adapt() -> None:
            if queue.now >= duration:
                return
            if self._adaptive:
                ratios = {}
                for app, target in self._targets.items():
                    measured = mean_took[app]
                    if measured is None or measured <= 0:
                        ratios[app] = target
                    else:
                        ratios[app] = target / measured
                total = sum(ratios.values())
                for app in weights:
                    weights[app] = ratios[app] / total
            queue.schedule(ADAPT_INTERVAL, adapt)

        def sample() -> None:
            total = sum(window.values())
            snapshot = {
                app: (window[app] / total if total > 0 else 0.0)
                for app in window
            }
            timeline.append((queue.now, snapshot))
            for app in window:
                window[app] = 0.0
            if queue.now < duration:
                queue.schedule(SAMPLE_INTERVAL, sample)

        for _ in range(THREADS):
            run_thread()
        queue.schedule(ADAPT_INTERVAL, adapt)
        queue.schedule(SAMPLE_INTERVAL, sample)
        queue.run(until=duration)

        # Published once per run (never per task), so the bench ledger
        # sees the work behind Figs. 25-26.
        METRICS.counter("aggbox.scheduler.tasks").inc(
            sum(share.tasks_run for share in shares.values()))
        return SchedulerResult(duration=duration, shares=shares,
                               timeline=timeline)

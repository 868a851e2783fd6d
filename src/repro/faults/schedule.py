"""Seedable, deterministic schedules of fault events.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records over virtual time.  Schedules are either composed explicitly
(``fig_partition``, ``fig_selfheal``, tests) or generated from a seed (:meth:`FaultSchedule.generate`), and
every consumer derives its behaviour purely from the schedule plus its
own deterministic clock, so a seed fully reproduces a chaos run.

Each kind reaches the layers an experiment sends it to, and no other:

================  ===========  =============================================
kind              read by      meaning
================  ===========  =============================================
``box-crash``     sim, plat.   agg box dies at ``time`` (until a later
                               ``box-recover``)
``box-recover``   sim, plat.   the box is healthy again (also clears
                               degradation)
``box-degrade``   sim, plat.   the box's processing slows by ``severity``
``link-down``     sim          a network link carries no traffic
``link-up``       sim          the link is restored
``worker-churn``  plat.        worker ``target`` is unavailable for
                               ``duration`` s
``box-overload``  sim          the box's service slows by ``severity`` for
                               ``duration`` s (queueing under offered load;
                               the window self-clears)
``box-shed``      sim          the box's ingress carries no traffic for
                               ``duration`` s
``box-gray``      plat.        the box runs ``severity`` times slow for
                               ``duration`` s while its heartbeat stays
                               healthy: only the latency detector sees it
``net-partition`` plat.        partition scope ``target`` (see
                               :mod:`repro.faults.domains`) is cut off for
                               ``duration`` s (0 = permanent): members stay
                               alive but unreachable across the border
================  ===========  =============================================

("sim" is :class:`repro.faults.SimFaultInjector`, "plat." is
:class:`repro.faults.PlatformFaultInjector`.)  A layer skips the kinds
it does not read.  Schedules are validated on construction
(:meth:`FaultSchedule.validate`) so incoherent timelines -- a recover
with nothing to recover from, overlapping crash windows for one target
-- fail loudly with the offending events named.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

BOX_CRASH = "box-crash"
BOX_RECOVER = "box-recover"
BOX_DEGRADE = "box-degrade"
LINK_DOWN = "link-down"
LINK_UP = "link-up"
WORKER_CHURN = "worker-churn"
BOX_OVERLOAD = "box-overload"
BOX_SHED = "box-shed"
BOX_GRAY = "box-gray"
NET_PARTITION = "net-partition"

FAULT_KINDS = frozenset({
    BOX_CRASH, BOX_RECOVER, BOX_DEGRADE, LINK_DOWN, LINK_UP, WORKER_CHURN,
    BOX_OVERLOAD, BOX_SHED, BOX_GRAY, NET_PARTITION,
})


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One timestamped fault.

    Attributes:
        time: virtual time of the event (seconds, >= 0).
        kind: one of :data:`FAULT_KINDS`.
        target: box id, link id, ``"worker:<index>"`` or partition
            scope the event hits.
        severity: slow-down factor (``box-degrade``/``box-overload``/
            ``box-gray``, > 1 slows the box down); unused otherwise.
        duration: how long a windowed fault lasts (``worker-churn``,
            ``box-overload``, ``box-shed``, ``box-gray`` and
            ``net-partition``; crash and link faults end via explicit
            recover/up events).
    """

    time: float
    kind: str
    target: str
    severity: float = 1.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault at negative time {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not self.target:
            raise ValueError("fault needs a target")
        if self.severity <= 0:
            raise ValueError("severity must be positive")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass
class FaultSchedule:
    """An ordered, queryable set of fault events.

    Events are kept sorted by ``(time, kind, target)``; all queries are
    pure functions of the schedule and a time ``t``, so layers can poll
    at their own clocks without coordination.
    """

    _events: List[FaultEvent] = field(default_factory=list)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events = sorted(events)
        self.validate()

    def validate(self) -> "FaultSchedule":
        """Reject incoherent timelines, naming the offending events.

        Checks:

        - ``box-recover`` with no outstanding crash/degrade on the
          target (recover-before-crash);
        - a second ``box-crash`` while the target is still crashed
          (overlapping crash windows);
        - ``link-down`` for a link already down / ``link-up`` for a
          link that is up;
        - overlapping ``net-partition`` windows for the same scope
          (``duration`` 0 is permanent, so anything later on that scope
          overlaps).

        Same-timestamp recoveries are applied before same-timestamp
        faults, so back-to-back windows that touch exactly are legal.
        Raises :class:`ValueError` listing every violation; returns
        self when coherent (constructor-chained).
        """
        problems: List[str] = []
        outstanding: Dict[str, Set[str]] = {}
        links_down: Set[str] = set()
        partition_end: Dict[str, float] = {}
        recovery_kinds = (BOX_RECOVER, LINK_UP)
        order = sorted(
            self._events,
            key=lambda e: (e.time, e.kind not in recovery_kinds,
                           e.kind, e.target),
        )

        def name(e: FaultEvent) -> str:
            return f"{e.kind}@{e.time:g}->{e.target}"

        for e in order:
            if e.kind == BOX_CRASH:
                kinds = outstanding.setdefault(e.target, set())
                if BOX_CRASH in kinds:
                    problems.append(
                        f"{name(e)}: overlapping crash windows "
                        f"({e.target!r} is still crashed)")
                kinds.add(BOX_CRASH)
            elif e.kind == BOX_DEGRADE:
                outstanding.setdefault(e.target, set()).add(e.kind)
            elif e.kind == BOX_RECOVER:
                kinds = outstanding.get(e.target)
                if not kinds:
                    problems.append(
                        f"{name(e)}: recover with no outstanding "
                        f"crash/degrade on {e.target!r}")
                else:
                    kinds.clear()
            elif e.kind == LINK_DOWN:
                if e.target in links_down:
                    problems.append(
                        f"{name(e)}: overlapping down windows "
                        f"(link {e.target!r} is already down)")
                links_down.add(e.target)
            elif e.kind == LINK_UP:
                if e.target not in links_down:
                    problems.append(
                        f"{name(e)}: link-up for {e.target!r} "
                        "which is not down")
                links_down.discard(e.target)
            elif e.kind == NET_PARTITION:
                end = partition_end.get(e.target)
                if end is not None and e.time < end:
                    problems.append(
                        f"{name(e)}: overlapping {e.kind} windows "
                        f"for {e.target!r}")
                new_end = (float("inf") if e.duration <= 0
                           else e.time + e.duration)
                partition_end[e.target] = max(end or 0.0, new_end)
        if problems:
            raise ValueError(
                "incoherent fault schedule: " + "; ".join(problems))
        return self

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def events_for(self, kind: Optional[str] = None,
                   target: Optional[str] = None) -> List[FaultEvent]:
        """Events matching the given kind and/or target."""
        return [
            e for e in self._events
            if (kind is None or e.kind == kind)
            and (target is None or e.target == target)
        ]

    # -- point-in-time queries ------------------------------------------------

    # Every query is one early-exit scan of the sorted events, in one of
    # three shapes: a latch, a level and a self-clearing window.

    def _latched(self, on: str, off: str, t: float) -> Set[str]:
        """Targets an ``on`` event set at or before ``t`` with no ``off``
        event since."""
        held: Set[str] = set()
        for event in self._events:
            if event.time > t:
                break
            if event.kind == on:
                held.add(event.target)
            elif event.kind == off:
                held.discard(event.target)
        return held

    def _level(self, kind: str, target: str, t: float,
               rest: float) -> float:
        """Severity of ``target``'s latest ``kind`` event at or before
        ``t``; a ``box-recover`` puts it back to ``rest``."""
        level = rest
        for event in self._events:
            if event.time > t:
                break
            if event.target != target:
                continue
            if event.kind == kind:
                level = event.severity
            elif event.kind == BOX_RECOVER:
                level = rest
        return level

    def _covering(self, kinds: Iterable[str], target: Optional[str],
                  t: float) -> List[FaultEvent]:
        """Events of ``kinds`` (on ``target``; None = on anything) whose
        window ``[time, time + duration)`` holds ``t``.  A partition of
        ``duration`` 0 is permanent; any other zero-length window covers
        nothing."""
        hits: List[FaultEvent] = []
        for event in self._events:
            if event.time > t:
                break
            if event.kind in kinds \
                    and (target is None or event.target == target) \
                    and (t < event.time + event.duration
                         or (event.duration <= 0
                             and event.kind == NET_PARTITION)):
                hits.append(event)
        return hits

    def crashed_at(self, t: float) -> Set[str]:
        """Boxes crashed at or before ``t`` and not yet recovered."""
        return self._latched(BOX_CRASH, BOX_RECOVER, t)

    def links_down_at(self, t: float) -> Set[str]:
        """Links down at or before ``t`` and not yet brought back up."""
        return self._latched(LINK_DOWN, LINK_UP, t)

    def degradation_at(self, target: str, t: float) -> float:
        """Processing slow-down factor of ``target`` at ``t`` (1.0 = healthy).

        The latest ``box-degrade`` at or before ``t`` applies until a
        ``box-recover`` for the same target clears it.
        """
        return self._level(BOX_DEGRADE, target, t, 1.0)

    def churn_until(self, target: str, t: float) -> Optional[float]:
        """End time of a ``worker-churn`` window covering ``t``, if any."""
        ends = [e.time + e.duration for e in
                self._covering((WORKER_CHURN,), target, t)]
        return max(ends) if ends else None

    def overload_at(self, target: str, t: float) -> float:
        """Service slow-down from overload windows covering ``t``.

        Overlapping ``box-overload`` windows do not stack; the worst
        (largest) factor applies.  1.0 = no overload.
        """
        worst = 1.0
        for event in self._covering((BOX_OVERLOAD,), target, t):
            worst = max(worst, event.severity)
        return worst

    def shedding_at(self, target: str, t: float) -> bool:
        """Is ``target`` inside a ``box-shed`` window at ``t``?"""
        return bool(self._covering((BOX_SHED,), target, t))

    def gray_at(self, target: str, t: float) -> float:
        """Gray slow-down factor of ``target`` at ``t`` (1.0 = none).

        Like :meth:`overload_at`, overlapping windows do not stack (the
        worst factor applies) -- but a gray window never shows up in
        the box's own health feed: its heartbeat stays ``healthy``.
        """
        worst = 1.0
        for event in self._covering((BOX_GRAY,), target, t):
            worst = max(worst, event.severity)
        return worst

    def partitions_at(self, t: float) -> List[str]:
        """Partition scopes active at ``t``, sorted.  A window with
        ``duration`` 0 never heals."""
        return sorted({e.target for e in
                       self._covering((NET_PARTITION,), None, t)})

    def permanent_crashes(self) -> Dict[str, float]:
        """Box id -> crash time, for crashes never followed by a recover."""
        last_crash: Dict[str, float] = {}
        for event in self._events:
            if event.kind == BOX_CRASH:
                last_crash[event.target] = event.time
            elif event.kind == BOX_RECOVER:
                last_crash.pop(event.target, None)
        return last_crash

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        duration: float,
        boxes: Sequence[str] = (),
        links: Sequence[str] = (),
        workers: int = 0,
        box_crashes: int = 0,
        link_flaps: int = 0,
        degradations: int = 0,
        churns: int = 0,
        overloads: int = 0,
        sheds: int = 0,
        permanent_fraction: float = 0.25,
    ) -> "FaultSchedule":
        """Draw a random but fully seed-determined schedule.

        Crashes strike in ``[0, 0.8 * duration)`` so some requests are
        in flight when they land; a ``permanent_fraction`` of them never
        recover (exercising §3.1's tree rewiring), the rest recover
        after an exponential downtime of mean ``duration / 4``
        (exercising retry ride-through).  Link faults are always flaps
        (down + up pairs): permanent wire cuts would need rerouting below
        the aggregation layer, which the paper's failure model does not
        cover.

        Generated schedules are always coherent (:meth:`validate`):
        when a drawn target's new window would overlap one it already
        has, the generator rotates deterministically to the next free
        target in sorted order (consuming no extra randomness) and
        skips the event if every target is busy.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if box_crashes + degradations + overloads + sheds > 0 \
                and not boxes:
            raise ValueError("box faults requested but no boxes given")
        if link_flaps > 0 and not links:
            raise ValueError("link flaps requested but no links given")
        if churns > 0 and workers < 1:
            raise ValueError("worker churn requested but no workers given")
        rng = random.Random(seed)
        # Downtimes are exponential with a mean of a quarter of the run.
        recovery_rate = 1.0 / (duration / 4.0)
        events: List[FaultEvent] = []
        boxes = sorted(boxes)
        links = sorted(links)

        # Per-target claimed windows, shared by every windowed kind the
        # coherence rules constrain (crash/degrade share the recover
        # namespace, so they share one busy map per box).
        busy: Dict[str, List[Tuple[float, float]]] = {}

        def free_target(pool: Sequence[str], drawn: str, start: float,
                        end: float) -> Optional[str]:
            at = pool.index(drawn)
            for step in range(len(pool)):
                candidate = pool[(at + step) % len(pool)]
                if not any(s < end and start < e
                           for s, e in busy.get(candidate, ())):
                    busy.setdefault(candidate, []).append((start, end))
                    return candidate
            return None

        for _ in range(box_crashes):
            box = rng.choice(boxes)
            start = rng.uniform(0.0, 0.8 * duration)
            permanent = rng.random() < permanent_fraction
            downtime = float("inf") if permanent else min(
                rng.expovariate(recovery_rate), duration - start)
            box = free_target(boxes, box, start, start + downtime)
            if box is None:
                continue
            events.append(FaultEvent(time=start, kind=BOX_CRASH, target=box))
            if not permanent:
                events.append(FaultEvent(time=start + downtime,
                                         kind=BOX_RECOVER, target=box))

        for _ in range(link_flaps):
            link = rng.choice(links)
            start = rng.uniform(0.0, 0.9 * duration)
            flap = rng.uniform(0.01, 0.2) * duration
            up_at = min(start + flap, duration)
            link = free_target(links, link, start, up_at)
            if link is None:
                continue
            events.append(FaultEvent(time=start, kind=LINK_DOWN, target=link))
            events.append(FaultEvent(time=up_at, kind=LINK_UP, target=link))

        for _ in range(degradations):
            box = rng.choice(boxes)
            start = rng.uniform(0.0, 0.8 * duration)
            factor = rng.uniform(1.5, 8.0)
            recover_at = min(start + rng.expovariate(recovery_rate),
                             duration)
            box = free_target(boxes, box, start, recover_at)
            if box is None:
                continue
            events.append(FaultEvent(time=start, kind=BOX_DEGRADE,
                                     target=box, severity=factor))
            events.append(FaultEvent(time=recover_at, kind=BOX_RECOVER,
                                     target=box))

        for _ in range(churns):
            index = rng.randrange(workers)
            start = rng.uniform(0.0, 0.8 * duration)
            events.append(FaultEvent(
                time=start, kind=WORKER_CHURN, target=f"worker:{index}",
                duration=rng.uniform(0.05, 0.25) * duration,
            ))

        for _ in range(overloads):
            box = rng.choice(boxes)
            start = rng.uniform(0.0, 0.8 * duration)
            events.append(FaultEvent(
                time=start, kind=BOX_OVERLOAD, target=box,
                severity=rng.uniform(2.0, 6.0),
                duration=min(rng.uniform(0.05, 0.3) * duration,
                             duration - start),
            ))

        for _ in range(sheds):
            box = rng.choice(boxes)
            start = rng.uniform(0.0, 0.8 * duration)
            events.append(FaultEvent(
                time=start, kind=BOX_SHED, target=box,
                duration=min(rng.uniform(0.05, 0.2) * duration,
                             duration - start),
            ))

        return cls(events)

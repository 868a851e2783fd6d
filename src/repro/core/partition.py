"""Partition tolerance: gray-failure detection and partial delivery.

NetAgg's §3.1 failover assumes failures are *clean*: a box crashes, its
heartbeat stops, the tree rewires.  This module covers the two failure
shapes that story misses:

- **gray failures** -- a box keeps heartbeating but runs an order of
  magnitude slow.  :class:`GrayDetector` watches per-box observed
  service times against a seeded EWMA baseline and flags outliers; the
  platform reports flagged boxes as ``gray`` in its health feed, plans
  new trees around them, and races deliveries into them against
  :data:`HEDGE_DEADLINE` instead of waiting the slow path out;
- **partitions** -- a subtree is unreachable, not dead.  Rather than
  fail the request, the platform can complete it *partially*, dropping
  exactly the unreachable workers and attaching a
  :class:`Completeness` record so the caller knows precisely what the
  aggregate covers (the bounded-completeness degraded mode of the
  distributed-aggregation literature).

A platform built with ``partition=True`` detects, avoids and hedges
gray boxes and delivers partially; one built without (the fail-stop
baseline) does none of it, and an isolated worker fails its request
with :class:`SubtreeUnreachable`.  The tuning is
module constants: one value of each was ever used.  Everything here is
deterministic on the platform's virtual clock; the detector has no
wall-clock or randomness of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs.live.series import ewma_step


#: Virtual seconds a delivery may take before the hedged duplicate down
#: the healthy path fires: ten healthy sends at the default 1 ms send
#: latency, so a healthy box is never hedged and a gray one (x400 in
#: ``fig_partition``) costs the request 11 ms instead of 0.4 s.
HEDGE_DEADLINE = 0.01

#: EWMA smoothing weight of a healthy sample in the gray baseline.
GRAY_ALPHA = 0.3

#: A sample this many times the baseline flags the box gray.  Every
#: gray window clears it (x8 and up in generated schedules, x400 in
#: ``fig_partition``); a degraded or overloaded box slowed past x4 is
#: flagged too, and new trees route around it as around a shed
#: window.
GRAY_THRESHOLD = 4.0


class GrayDetector:
    """Seeded-EWMA latency-outlier detection over per-box service times.

    Every box's baseline starts at ``baseline`` -- the platform seeds it
    with the healthy :data:`repro.faults.retry.SEND_LATENCY` -- so the
    seed is the one trusted sample and the detector can flag from the
    very first outlier.  ``observe`` folds healthy samples into the
    box's baseline; a sample beyond :data:`GRAY_THRESHOLD` times the baseline
    flags the box *without* poisoning the baseline (otherwise a long
    gray episode would normalise itself).  A subsequent healthy sample
    clears the flag -- post-heal traffic returns the box to service.
    """

    def __init__(self, baseline: float) -> None:
        self._baseline = baseline
        #: Per-box smoothed baselines (repro.obs.live owns the EWMA
        #: arithmetic; this detector only keeps the per-box state).
        self._baselines: Dict[str, float] = {}
        self._flagged: Dict[str, float] = {}

    def observe(self, box_id: str, service_time: float,
                at: float) -> bool:
        """Fold one observed service time; returns True when flagged."""
        baseline = self._baselines.get(box_id, self._baseline)
        # A zero baseline (a zero send latency) cannot scale a threshold.
        if baseline > 0 and service_time > GRAY_THRESHOLD * baseline:
            self._flagged[box_id] = at
            return True
        self._flagged.pop(box_id, None)
        self._baselines[box_id] = ewma_step(baseline, service_time,
                                            GRAY_ALPHA)
        return False

    def is_gray(self, box_id: str) -> bool:
        return box_id in self._flagged


@dataclass(frozen=True)
class Completeness:
    """What fraction of the request's workers an aggregate covers.

    ``exact`` is True only when every worker's partial is included --
    the label tests verify against ground truth (a partial result must
    never claim exactness).
    """

    workers_total: int
    workers_included: int
    missing_workers: Tuple[int, ...] = ()
    #: Partition scopes (domain names) that cut the missing workers off.
    missing_scopes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers_total < 0 or self.workers_included < 0:
            raise ValueError("worker counts must be >= 0")
        if self.workers_included > self.workers_total:
            raise ValueError("included exceeds total")
        if len(self.missing_workers) != \
                self.workers_total - self.workers_included:
            raise ValueError(
                f"{len(self.missing_workers)} missing workers listed for "
                f"{self.workers_total - self.workers_included} missing")

    @property
    def fraction(self) -> float:
        if self.workers_total == 0:
            return 1.0
        return self.workers_included / self.workers_total

    @property
    def exact(self) -> bool:
        return self.workers_included == self.workers_total

    def to_dict(self) -> Dict[str, object]:
        return {
            "exact": self.exact,
            "fraction": self.fraction,
            "workers_total": self.workers_total,
            "workers_included": self.workers_included,
            "missing_workers": list(self.missing_workers),
            "missing_scopes": list(self.missing_scopes),
        }

    @classmethod
    def merged(cls, parts: List["Completeness"]) -> "Completeness":
        """Combine per-tree completeness (batch jobs): a worker is
        missing from the job if it was missing from any tree."""
        if not parts:
            return cls(0, 0)
        total = max(p.workers_total for p in parts)
        missing: Dict[int, None] = {}
        scopes: List[str] = []
        for p in parts:
            for w in p.missing_workers:
                missing[w] = None
            scopes.extend(p.missing_scopes)
        return cls(
            workers_total=total,
            workers_included=total - len(missing),
            missing_workers=tuple(sorted(missing)),
            missing_scopes=tuple(sorted(set(scopes))),
        )


@dataclass
class SubtreeUnreachable(RuntimeError):
    """A request could not reach part (or all) of its workers.

    Raised when partial delivery is disabled (the fail-stop baseline)
    or when *no* worker is reachable (there is nothing to aggregate
    partially).
    """

    request_id: str
    missing_workers: Tuple[int, ...] = ()
    scopes: Tuple[str, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        super().__init__(str(self))

    def __str__(self) -> str:
        scopes = ", ".join(self.scopes) or "unknown scope"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"request {self.request_id!r}: {len(self.missing_workers)} "
            f"worker(s) unreachable across [{scopes}]{extra}"
        )

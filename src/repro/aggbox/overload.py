"""Overload control at the agg box: bounded queues, health, shedding.

NetAgg's failure story (§3.1) covers *crashes*; this module covers
*saturation*.  An :class:`repro.aggbox.box.AggBoxRuntime` constructed
with an :class:`OverloadPolicy` bounds how many partial results it will
buffer per application and tracks a :class:`BoxHealth` state machine
over high/low queue watermarks.  When the bound is hit the box *sheds
by partial flush*: the most-loaded pending request's buffered partials
merge into a delta aggregate that is emitted upstream immediately
(safe -- aggregation functions are associative and commutative),
freeing queue space for the new partial.  Folded sources move to the
duplicate-suppression set, so exactness holds.  A box never refuses a
partial: refusing one the platform already announced would strand the
parent's expected count, so refusal happens at plan time instead
(pressured and shedding boxes are NACKed out of new trees).

Health states and legal transitions::

            +-----------+      +-----------+      +----------+
      ----->|  healthy  |<---->| pressured |<---->| shedding |
            +-----------+      +-----------+      +----------+
                  ^  \\_______________|__________________/
                  |                  v (any state)
                  |            +----------+
                  +------------|  failed  |
                    (recover)  +----------+

``healthy -> pressured`` when pending crosses the high watermark,
``pressured -> shedding`` when the queue is full (partial flushes
happen only in this state), ``shedding -> pressured`` once the queue
drains below the high watermark, ``pressured -> healthy`` below the low
watermark.  ``failed`` is entered explicitly (crash) from any state and
leaves only through ``recover``.  Every transition is recorded so chaos
tests can assert legality, and exported via :class:`BoxHeartbeat` so
the platform can re-plan trees away from pressured boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import METRICS, get_tracer

HEALTHY = "healthy"
PRESSURED = "pressured"
SHEDDING = "shedding"
FAILED = "failed"

#: Report-only state: the platform substitutes ``suspect`` for a box
#: whose heartbeat is older than the configured staleness threshold.
#: A silent box may be healthy, wedged, or partitioned -- the optimizer
#: must not trust its last-known state either way.  ``suspect`` never
#: appears in :data:`LEGAL_TRANSITIONS`: it is a property of the
#: *report*, not of the box's own health machine.
SUSPECT = "suspect"

#: Report-only state like ``suspect``: the platform substitutes
#: ``gray`` for a box whose heartbeat says ``healthy`` but whose
#: observed service times the latency-outlier detector flagged
#: (:class:`repro.core.partition.GrayDetector`).  A gray box is the
#: heartbeat protocol's blind spot -- alive, responsive to health
#: probes, and useless -- so, like ``suspect``, it never appears in
#: :data:`LEGAL_TRANSITIONS`: it is a property of the *report*.
GRAY = "gray"

HEALTH_STATES = (HEALTHY, PRESSURED, SHEDDING, FAILED)

#: States a :class:`BoxHeartbeat` may carry (machine states plus the
#: platform-synthesised ``suspect``/``gray``).
REPORTABLE_STATES = HEALTH_STATES + (SUSPECT, GRAY)

#: state -> states it may legally transition to.
LEGAL_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    HEALTHY: (PRESSURED, FAILED),
    PRESSURED: (HEALTHY, SHEDDING, FAILED),
    SHEDDING: (PRESSURED, FAILED),
    FAILED: (HEALTHY,),
}


@dataclass(frozen=True)
class OverloadPolicy:
    """Bounded-queue configuration of one agg box.

    Attributes:
        max_pending: per-app cap on buffered (not yet folded) partials.
        high_watermark: fraction of ``max_pending`` above which the box
            reports ``pressured`` (and returns there from ``shedding``).
        low_watermark: fraction below which it returns to ``healthy``.
    """

    max_pending: int = 64
    high_watermark: float = 0.75
    low_watermark: float = 0.25

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= 1 "
                f"(got {self.low_watermark}, {self.high_watermark})"
            )

    @property
    def high_pending(self) -> int:
        return max(1, int(self.max_pending * self.high_watermark))

    @property
    def low_pending(self) -> int:
        return max(0, int(self.max_pending * self.low_watermark))


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change of a box's health machine."""

    at: float
    frm: str
    to: str
    reason: str = ""


@dataclass(frozen=True)
class BoxHeartbeat:
    """One health report a box exports to the platform."""

    box_id: str
    at: float
    state: str
    pending: int          #: total buffered partials across apps
    max_pending: int      #: per-app bound (0 = unbounded)
    flushes: int          #: cumulative pressure-relief partial flushes


class BoxHealth:
    """The health state machine of one agg box.

    Driven by queue occupancy (:meth:`observe`) and explicit
    crash/recover calls; every transition is validated against
    :data:`LEGAL_TRANSITIONS` and recorded for the chaos suite.
    """

    def __init__(self, policy: OverloadPolicy, owner: str = "") -> None:
        self._policy = policy
        self._state = HEALTHY
        self._owner = owner  #: box id stamped onto trace instants
        self.transitions: List[HealthTransition] = []

    @property
    def state(self) -> str:
        return self._state

    def _move(self, to: str, at: float, reason: str) -> None:
        if to == self._state:
            return
        if to not in LEGAL_TRANSITIONS[self._state]:
            raise RuntimeError(
                f"illegal health transition {self._state} -> {to}"
            )
        self.transitions.append(
            HealthTransition(at=at, frm=self._state, to=to, reason=reason)
        )
        METRICS.counter(f"aggbox.health.{to}").inc()
        tracer = get_tracer()
        if tracer.enabled:
            # Queue watermark crossings land on the aggbox timeline.
            tracer.instant("box.health", at, layer="aggbox",
                           box=self._owner, frm=self._state, to=to,
                           reason=reason)
        self._state = to

    def observe(self, pending: int, at: float = 0.0) -> str:
        """Update the state from the current worst per-app queue depth."""
        if self._state == FAILED:
            return self._state
        policy = self._policy
        if pending >= policy.max_pending:
            if self._state == HEALTHY:
                self._move(PRESSURED, at, f"pending={pending}")
            self._move(SHEDDING, at, f"pending={pending}")
        elif pending >= policy.high_pending:
            # Shedding persists until the queue drains below the high
            # watermark (hysteresis); healthy boxes become pressured.
            if self._state == HEALTHY:
                self._move(PRESSURED, at, f"pending={pending}")
        else:
            if self._state == SHEDDING:
                self._move(PRESSURED, at, f"pending={pending}")
            if self._state == PRESSURED and pending < policy.low_pending:
                self._move(HEALTHY, at, f"pending={pending}")
        return self._state

    def fail(self, at: float = 0.0) -> None:
        """The box crashed (entered from any state)."""
        self._move(FAILED, at, "crash")

    def recover(self, at: float = 0.0) -> None:
        """The box came back empty (queues were lost with the crash)."""
        self._move(HEALTHY, at, "recover")


def assert_legal_transitions(
    transitions: List[HealthTransition],
) -> None:
    """Raise AssertionError when a recorded trace breaks the machine.

    Used by the chaos-invariant suite: the trace must start from
    ``healthy`` and every hop must be in :data:`LEGAL_TRANSITIONS`.
    """
    state = HEALTHY
    for t in transitions:
        assert t.frm == state, f"trace gap: at {t.at} expected {state}, " \
                               f"recorded {t.frm}"
        assert t.to in LEGAL_TRANSITIONS[t.frm], \
            f"illegal transition {t.frm} -> {t.to} at {t.at}"
        state = t.to

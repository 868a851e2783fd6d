"""The audit stage: one consistent snapshot of platform health.

An :class:`Auditor` is wired to *providers* -- callables returning the
live feeds the control loop consumes -- and folds them into a frozen
:class:`AuditReport` per tick:

- ``health``: per-box heartbeats (the health-feed state, including
  the platform-synthesised ``suspect`` for stale heartbeats), usually
  :meth:`repro.core.platform.NetAggPlatform.health_report`;
- ``utilization``: per-box offered-load fraction of processing
  capacity, usually derived from the simulator's ``link.util:*`` epoch
  samples (PR 5) or an experiment's own load accounting;
- ``drained``: boxes currently drained by earlier optimizer actions,
  usually :meth:`~repro.core.platform.NetAggPlatform.drained_boxes`;
- ``fct_p99``: tail flow-completion time, when the caller tracks one;
- ``alerts``: SLO burn-rate alerts fired since the last tick, usually
  :meth:`repro.obs.live.LiveTelemetry.drain_alerts` -- the live
  telemetry plane's observe -> alert -> act hook into the control
  loop.

Shim-retry pressure comes straight from the live metrics registry: the
auditor snapshots ``platform.shim.retry`` each tick and reports the
delta, so a retry storm between two audits is visible without any
per-request bookkeeping.  Every audit emits an ``optimizer.audit`` span
and bumps ``optimizer.audits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.aggbox.overload import FAILED, SUSPECT
from repro.obs import METRICS, get_tracer


@dataclass(frozen=True)
class BoxAudit:
    """One box's audited state at one tick."""

    box_id: str
    state: str            #: heartbeat state (may be ``suspect``)
    utilization: float    #: offered-load fraction of proc capacity
    drained: bool = False #: currently drained by the optimizer

    @property
    def distrusted(self) -> bool:
        """States the optimizer must not route new work towards."""
        return self.state in (FAILED, SUSPECT)


@dataclass(frozen=True)
class AuditReport:
    """Everything one optimizer tick knows about the platform."""

    at: float
    boxes: Tuple[BoxAudit, ...]
    retry_delta: int = 0         #: shim retries since the last audit
    fct_p99: Optional[float] = None
    #: SLO burn-rate alerts fired since the last audit (each an object
    #: with ``key``/``at``/``fast_burn``/``slow_burn``, typically a
    #: :class:`repro.obs.live.BurnRateAlert`).
    alerts: Tuple[object, ...] = ()

    def box(self, box_id: str) -> BoxAudit:
        for audit in self.boxes:
            if audit.box_id == box_id:
                return audit
        raise KeyError(f"no audit for box {box_id!r}")

    def in_state(self, *states: str) -> Tuple[BoxAudit, ...]:
        return tuple(a for a in self.boxes if a.state in states)

    def by_utilization(self) -> Tuple[BoxAudit, ...]:
        """Hottest first; ties broken by box id for determinism."""
        return tuple(sorted(self.boxes,
                            key=lambda a: (-a.utilization, a.box_id)))


class Auditor:
    """Builds :class:`AuditReport` snapshots from live providers."""

    def __init__(
        self,
        health: Callable[[], Dict[str, object]],
        utilization: Optional[Callable[[], Dict[str, float]]] = None,
        drained: Optional[Callable[[], set]] = None,
        fct_p99: Optional[Callable[[], Optional[float]]] = None,
        alerts: Optional[Callable[[], Sequence[object]]] = None,
    ) -> None:
        self._health = health
        self._utilization = utilization
        self._drained = drained
        self._fct_p99 = fct_p99
        self._alerts = alerts
        self._retry_counter = METRICS.counter("platform.shim.retry")
        self._m_audits = METRICS.counter("optimizer.audits")
        self._m_alerted = METRICS.counter("optimizer.audits.alerted")
        self._last_retries: Optional[int] = None

    def audit(self, at: float) -> AuditReport:
        """One consistent snapshot at virtual time ``at``."""
        tracer = get_tracer()
        span = tracer.begin("optimizer.audit", at, layer="optimizer") \
            if tracer.enabled else 0
        try:
            heartbeats = self._health()
            util = self._utilization() if self._utilization else {}
            drained = self._drained() if self._drained else set()
            retries = int(self._retry_counter.value)
            delta = (retries - self._last_retries
                     if self._last_retries is not None else 0)
            self._last_retries = retries
            boxes = tuple(
                BoxAudit(
                    box_id=box_id,
                    state=beat.state,
                    utilization=float(util.get(box_id, 0.0)),
                    drained=box_id in drained,
                )
                for box_id, beat in sorted(heartbeats.items())
            )
            alerts = tuple(self._alerts()) if self._alerts else ()
            report = AuditReport(
                at=at,
                boxes=boxes,
                retry_delta=delta,
                fct_p99=self._fct_p99() if self._fct_p99 else None,
                alerts=alerts,
            )
            self._m_audits.inc()
            if alerts:
                self._m_alerted.inc()
            return report
        finally:
            if span:
                tracer.end(span, at)

"""The audit stage: one consistent snapshot of platform health.

An :class:`Auditor` is wired to three *providers* -- callables returning
the live feeds the control loop consumes -- and folds them into a
frozen :class:`AuditReport` per tick:

- ``health``: per-box heartbeats (the health-feed state), usually
  :meth:`repro.core.platform.NetAggPlatform.health_report`;
- ``utilization``: per-box offered-load fraction of processing
  capacity, e.g. an experiment's own load accounting (a box missing
  from the dict reads 0.0);
- ``drained``: boxes currently drained by earlier optimizer actions,
  usually :meth:`~repro.core.platform.NetAggPlatform.drained_boxes`.

Every audit emits an ``optimizer.audit`` span and bumps
``optimizer.audits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Set, Tuple

from repro.obs import METRICS, get_tracer


@dataclass(frozen=True)
class BoxAudit:
    """One box's audited state at one tick."""

    box_id: str
    state: str            #: heartbeat state
    utilization: float    #: offered-load fraction of proc capacity
    drained: bool = False #: currently drained by the optimizer


@dataclass(frozen=True)
class AuditReport:
    """Everything one optimizer tick knows about the platform."""

    at: float
    boxes: Tuple[BoxAudit, ...]


class Auditor:
    """Builds :class:`AuditReport` snapshots from live providers."""

    def __init__(
        self,
        health: Callable[[], Dict[str, object]],
        utilization: Callable[[], Dict[str, float]],
        drained: Callable[[], Set[str]],
    ) -> None:
        self._health = health
        self._utilization = utilization
        self._drained = drained
        self._m_audits = METRICS.counter("optimizer.audits")

    def audit(self, at: float) -> AuditReport:
        """One consistent snapshot at virtual time ``at``."""
        tracer = get_tracer()
        span = tracer.begin("optimizer.audit", at, layer="optimizer") \
            if tracer.enabled else 0
        try:
            util = self._utilization()
            drained = self._drained()
            report = AuditReport(at=at, boxes=tuple(
                BoxAudit(
                    box_id=box_id,
                    state=beat.state,
                    utilization=float(util.get(box_id, 0.0)),
                    drained=box_id in drained,
                )
                for box_id, beat in sorted(self._health().items())
            ))
            self._m_audits.inc()
            return report
        finally:
            if span:
                tracer.end(span, at)

"""Failure detection and recovery (§3.1, "Handling failures").

A lightweight detector runs at every agg box and at the master's shim,
monitoring its *downstream* boxes.  When node N detects that box F
failed, it contacts F's children (boxes or workers) and instructs them
to redirect future partial results to N itself; N also tells them which
results were already processed so nothing is resent (duplicate
suppression, which the box runtime enforces via its processed-sources
set).

The structural half -- removing F from a tree and re-parenting its
children -- is :func:`repro.core.tree.rewire_failed_box` (and
``TreeBuilder.build_many(..., leave_out)`` for the boxes known before
planning); the detector half, here, is a small heartbeat monitor usable
in both the functional platform and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class FailureDetector:
    """Heartbeat-based monitoring of downstream boxes.

    Every monitored box must produce a heartbeat at least every
    ``timeout`` seconds; :meth:`missing` reports the boxes considered
    failed at a given time.  Deterministic (driven by explicit clocks)
    so tests and the emulator can exercise exact timings.
    """

    timeout: float = 1.0
    _last_seen: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def watch(self, box_id: str, now: float = 0.0) -> None:
        """Start monitoring a downstream box."""
        self._last_seen.setdefault(box_id, now)

    def heartbeat(self, box_id: str, now: float) -> None:
        """Record a heartbeat from ``box_id`` at local time ``now``.

        Heartbeats are *clamped* against clock regressions: a heartbeat
        stamped earlier than the last one seen (a skewed or rewound
        sender clock) keeps the newer timestamp instead of silently
        rewinding the box towards a spurious timeout.  Legitimate skew
        thus delays detection of a *silent* box but never fails a
        *live* one.
        """
        if box_id not in self._last_seen:
            raise KeyError(f"not watching box {box_id!r}")
        self._last_seen[box_id] = max(self._last_seen[box_id], now)

    def missing(self, now: float) -> List[str]:
        """Boxes whose heartbeat is overdue at time ``now``.

        The boundary is strict: a box is missing only when *more* than
        ``timeout`` seconds have passed since its last heartbeat, so a
        heartbeat landing exactly on the deadline still counts as alive
        (``now - seen > timeout``, not ``>=``).
        """
        return sorted(
            box_id for box_id, seen in self._last_seen.items()
            if now - seen > self.timeout
        )

    def forget(self, box_id: str) -> None:
        self._last_seen.pop(box_id, None)

"""Straggler mitigation (§3.1, "Handling stragglers").

If a node observes that a downstream agg box is too slow for a request
(an application-specific latency threshold), it redirects *that
request's* remaining results around the box -- the cause may be specific
to the request.  A box that is slow repeatedly across different requests
is declared permanently failed and the failure-recovery procedure takes
over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple


@dataclass(frozen=True)
class StragglerPolicy:
    """Thresholds for straggler decisions.

    Attributes:
        latency_threshold: seconds after which a box counts as slow for
            a request (application-specific, per the paper).
        repeat_limit: distinct slow requests after which the box is
            considered permanently failed.
    """

    latency_threshold: float = 1.0
    repeat_limit: int = 3

    def __post_init__(self) -> None:
        if self.latency_threshold <= 0:
            raise ValueError("latency_threshold must be positive")
        if self.repeat_limit < 1:
            raise ValueError("repeat_limit must be >= 1")


@dataclass
class StragglerMonitor:
    """Tracks per-box slowness and produces mitigation decisions."""

    policy: StragglerPolicy = field(default_factory=StragglerPolicy)
    _slow_requests: Dict[str, Set[str]] = field(default_factory=dict)
    _redirected: Set[Tuple[str, str]] = field(default_factory=set)

    def observe(self, box_id: str, request_id: str,
                latency: float) -> str:
        """Record an observed per-request latency for a downstream box.

        Returns the decision:

        - ``"ok"`` -- within the threshold;
        - ``"redirect"`` -- slow for this request: route the request's
          remaining results around the box (first offence per request);
        - ``"fail"`` -- slow across ``repeat_limit`` distinct requests:
          treat the box as permanently failed.
        """
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if latency <= self.policy.latency_threshold:
            return "ok"
        slow = self._slow_requests.setdefault(box_id, set())
        slow.add(request_id)
        self._redirected.add((box_id, request_id))
        if len(slow) >= self.policy.repeat_limit:
            return "fail"
        return "redirect"

    def permanently_failed(self) -> List[str]:
        return sorted(
            box_id for box_id, slow in self._slow_requests.items()
            if len(slow) >= self.policy.repeat_limit
        )

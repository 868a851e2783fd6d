"""The states of the platform's box health feed.

NetAgg's failure story (§3.1) covers *crashes*; the health feed is how
the platform and its optimizer see them.  A box collects one request's
fan-in, emits and forgets: it holds nothing between requests, so it
has no load state of its own and every box it runs is ``healthy``.
The other states are verdicts the platform reaches about a box
(:meth:`repro.core.platform.NetAggPlatform.health_report`), worst news
first::

    failed   taken down with fail_box, until recover_box
    gray     heartbeats fine, but the latency detector flags it slow
    healthy  none of the above

A ``failed`` box is planned out of new trees and never touched by the
optimizer; a ``gray`` one is planned around when partition tolerance is
on.  Refusal happens at plan time (gray boxes are NACKed), never by a
box turning away a partial the platform already announced.
"""

from __future__ import annotations

from dataclasses import dataclass

HEALTHY = "healthy"
FAILED = "failed"

#: The platform reports ``gray`` for a box that heartbeats fine but
#: whose observed service times the latency-outlier detector flagged
#: (:class:`repro.core.partition.GrayDetector`): alive, responsive to
#: health probes, and useless -- the heartbeat protocol's blind spot.
GRAY = "gray"


@dataclass(frozen=True)
class BoxHeartbeat:
    """One box's entry in the platform's health feed."""

    box_id: str
    at: float
    state: str

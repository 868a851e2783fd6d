"""The platform's verdict about each box, read from outside ``src/``.

No entry point asks :class:`repro.core.platform.NetAggPlatform` for a
health feed, so the feed is a test oracle: a box is ``failed`` once
``fail_box`` took it down, ``gray`` while the partition plane's latency
detector flags it slow, and ``healthy`` otherwise.  The optimizer's
:class:`repro.core.optimizer.Auditor` takes ``lambda:
health_report(platform)`` as its health provider.
"""

from typing import Dict, NamedTuple

HEALTHY = "healthy"
FAILED = "failed"
GRAY = "gray"


class Beat(NamedTuple):
    box_id: str
    state: str


def health_report(platform) -> Dict[str, Beat]:
    """One :class:`Beat` per box, keyed and ordered by box id."""
    gray = platform._gray
    report = {}
    for box_id in sorted(platform._boxes):
        if box_id in platform._failed:
            state = FAILED
        elif gray is not None and gray.is_gray(box_id):
            state = GRAY
        else:
            state = HEALTHY
        report[box_id] = Beat(box_id, state)
    return report

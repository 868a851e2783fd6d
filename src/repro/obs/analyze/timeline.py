"""Per-link utilization timelines and the ranked bottleneck table.

The simulator emits one counter sample per (changed) link utilization
per rate epoch (``link.util:<link_id>`` tracks, see
:data:`repro.obs.LINK_UTIL_PREFIX`).  Samples are piecewise-constant:
the value at ``t`` holds until the next sample on the same track, and
the last one holds to the run's end.  Folding those tracks gives, per
physical link:

- ``busy_frac`` -- fraction of the run the link spent at or above
  :data:`BUSY_UTILIZATION` (i.e. saturated, the max-min binding
  constraint);
- ``mean_util`` / ``p99_util`` -- time-weighted mean and 99th
  percentile utilization;
- ``bytes`` -- total bytes carried (from the run's final
  ``link.traffic`` instants);
- ``cp_seconds`` -- critical-path seconds credited to the link by
  :func:`repro.obs.analyze.critpath.link_credit` (how much request
  FCT the link was the binding constraint for).

The table ranks by ``cp_seconds`` first (then busy fraction, then
mean): raw saturation time rewards long-lived background flows that
keep a core link warm without slowing any request, whereas credited
seconds measure what actually bottlenecked the workload.  That ranking
recovers the paper's bottleneck-shift story: without aggregation an
incast job's FCT is bound at the master's *edge* downlink; with
on-path aggregation the boxes absorb the fan-in and the residual
request time is spent crossing the shared *core*.

Link tiers come from the topology's id convention
(``host:12->tor:0``, ``tor:0->aggr:0:0``, ``aggr:0:0->core:1``,
``box:tor:0:0->tor:0``, virtual ``proc:box:...``): any endpoint
``box:``/``proc:`` makes the link *box* tier, else any ``host:``
endpoint makes it *edge*, else it is *core*.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.analyze.trace_data import RunView
from repro.obs.tracer import LINK_UTIL_PREFIX

#: Utilization at/above which a link counts as busy (saturated).
BUSY_UTILIZATION = 0.95

#: Link tiers, edge of the network inwards.
TIER_EDGE = "edge"
TIER_CORE = "core"
TIER_BOX = "box"
TIERS = (TIER_EDGE, TIER_CORE, TIER_BOX)


def link_tier(link_id: str) -> str:
    """Classify a link id into edge / core / box (module docstring)."""
    ends = link_id.split("->", 1)
    if any(e.startswith(("box:", "proc:")) for e in ends):
        return TIER_BOX
    if any(e.startswith("host:") for e in ends):
        return TIER_EDGE
    return TIER_CORE


class LinkSeries:
    """One link's piecewise-constant utilization over a run."""

    __slots__ = ("link_id", "_times", "_values", "_end")

    def __init__(self, link_id: str,
                 points: Iterable[Tuple[float, float]], end: float) -> None:
        self.link_id = link_id
        self._times: List[float] = []
        self._values: List[float] = []
        for at, value in points:
            self._times.append(at)
            self._values.append(value)
        self._end = end

    def pieces(self, t0: float, t1: float) -> Iterator[Tuple[float, float]]:
        """Yield ``(duration, value)`` segments covering ``[t0, t1]``.

        Before the first sample the value is 0 (the link had not been
        used yet); after the last it holds the last value.
        """
        t1 = min(t1, self._end) if self._end > t0 else t1
        if t1 <= t0:
            return
        cursor = t0
        idx = bisect.bisect_right(self._times, t0) - 1
        while cursor < t1:
            value = self._values[idx] if idx >= 0 else 0.0
            nxt = self._times[idx + 1] if idx + 1 < len(self._times) else t1
            upto = min(nxt, t1)
            if upto > cursor:
                yield (upto - cursor, value)
            cursor = upto
            idx += 1

    def integrate(self, t0: float, t1: float) -> float:
        """Time-integral of utilization over ``[t0, t1]`` (seconds of
        fully-busy-link-equivalent)."""
        return sum(dt * v for dt, v in self.pieces(t0, t1))


def series_for_run(run: RunView) -> Dict[str, LinkSeries]:
    """Fold a run's ``link.util:*`` samples into per-link series."""
    points: Dict[str, List[Tuple[float, float]]] = {}
    for sample in run.samples:
        if sample.name.startswith(LINK_UTIL_PREFIX):
            link_id = sample.name[len(LINK_UTIL_PREFIX):]
            points.setdefault(link_id, []).append((sample.at, sample.value))
    end = run.end_time
    return {
        link_id: LinkSeries(link_id, pts, end)
        for link_id, pts in points.items()
    }


@dataclass(frozen=True)
class LinkStats:
    """One row of the bottleneck table."""

    link: str
    tier: str
    busy_frac: float
    mean_util: float
    p99_util: float
    bytes: float
    cp_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "link": self.link,
            "tier": self.tier,
            "busy_frac": self.busy_frac,
            "mean_util": self.mean_util,
            "p99_util": self.p99_util,
            "bytes": self.bytes,
            "cp_seconds": self.cp_seconds,
        }


@dataclass
class TimelineReport:
    """Ranked bottleneck view of one simulator run."""

    strategy: str
    end_time: float
    links: List[LinkStats]          #: ranked, worst bottleneck first
    tier_busy: Dict[str, float]     #: max busy_frac per tier
    tier_credit: Dict[str, float]   #: total cp_seconds per tier
    dominant_tier: str              #: most-credited tier (module doc)


def _weighted_p99(pieces: List[Tuple[float, float]]) -> float:
    """Time-weighted 99th-percentile value of (duration, value) pieces."""
    total = sum(dt for dt, _ in pieces)
    if total <= 0:
        return 0.0
    cut = 0.99 * total
    acc = 0.0
    for dt, value in sorted(pieces, key=lambda p: p[1]):
        acc += dt
        if acc >= cut:
            return value
    return pieces[-1][1]


def run_timeline(run: RunView, top: int = 0,
                 credit: Optional[Dict[str, float]] = None) -> TimelineReport:
    """Build the ranked bottleneck table for one run.

    ``credit`` maps link ids to critical-path seconds (from
    :func:`repro.obs.analyze.critpath.link_credit`); links are ranked
    by it, then busy fraction, then mean utilization, then id
    (deterministic).  The dominant tier is the one with the most total
    credit, falling back to the top-ranked link's tier when the trace
    held no aggregation jobs.  ``top`` truncates the table (0 = all).
    """
    credit = credit or {}
    series = series_for_run(run)
    carried: Dict[str, float] = {}
    for instant in run.instants:
        if instant.name == "link.traffic":
            carried[str(instant.tags.get("link", ""))] = \
                float(instant.tags.get("bytes", 0.0))
    end = run.end_time
    stats: List[LinkStats] = []
    for link_id, track in series.items():
        pieces = list(track.pieces(0.0, end))
        total = sum(dt for dt, _ in pieces)
        if total <= 0:
            continue
        busy = sum(dt for dt, v in pieces if v >= BUSY_UTILIZATION)
        stats.append(LinkStats(
            link=link_id,
            tier=link_tier(link_id),
            busy_frac=busy / total,
            mean_util=sum(dt * v for dt, v in pieces) / total,
            p99_util=_weighted_p99(pieces),
            bytes=carried.get(link_id, 0.0),
            cp_seconds=credit.get(link_id, 0.0),
        ))
    stats.sort(key=lambda s: (-s.cp_seconds, -s.busy_frac,
                              -s.mean_util, s.link))
    tier_busy = {tier: 0.0 for tier in TIERS}
    tier_credit = {tier: 0.0 for tier in TIERS}
    for s in stats:
        tier_busy[s.tier] = max(tier_busy[s.tier], s.busy_frac)
        tier_credit[s.tier] += s.cp_seconds
    if any(credit.values()):
        dominant = max(TIERS, key=lambda t: tier_credit[t])
    else:
        dominant = stats[0].tier if stats else ""
    if top:
        stats = stats[:top]
    return TimelineReport(
        strategy=run.strategy,
        end_time=end,
        links=stats,
        tier_busy=tier_busy,
        tier_credit=tier_credit,
        dominant_tier=dominant,
    )

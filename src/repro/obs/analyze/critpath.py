"""Per-request critical paths with layer attribution.

Two span vocabularies feed the extractor:

**Simulator jobs.**  Each aggregation job is a tree of ``flow`` spans
(layer ``netsim.flow``) whose ``children`` tags carry the dependency
DAG the solver enforced: a segment is admitted only once its children
drained.  The critical path of a job is the blocking chain walked from
the job's root (the last-finishing flow nobody depends on) downwards,
always into the child that drained last (ties break lexicographically
on flow id, so extraction is deterministic).  Each chain segment's
transfer window ``[admitted, drained]`` is attributed to the tier of
its *binding link* -- the link on the flow's path with the highest
time-integrated utilization over the window, i.e. the constraint that
set the flow's max-min rate.  Tiers map to categories: edge ->
``edge-link``, core -> ``core-link``, box wires/virtual proc links ->
``box-compute``.

**Platform requests.**  Each ``platform.request`` envelope span groups
the shim-level work for one ``execute_request`` by its ``request``
tag (probe spans and shim instants use per-tree ``<id>@t<k>`` and
per-source ``<id>/<source>`` aliases; box spans carry the origin id
directly).  Attribution inside the envelope:

- ``box-compute``: ``box.emit`` span time for the request;
- ``shim-retry``: probe spans that contained a retry or breaker-open
  instant (the whole probe burned timeout+backoff clock), plus
  churn waits and degradation costs;
- ``edge-link``: clean probe sends and delivery time net of the box
  work nested inside it (the platform models host<->box hops only, so
  nothing lands in ``core-link`` here).

Fractions are computed as ``category_seconds / attributed_seconds``,
so they sum to 1 whenever any time was attributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.analyze.timeline import (
    TIER_BOX,
    TIER_CORE,
    LinkSeries,
    link_tier,
)
from repro.obs.analyze.trace_data import RunView, SpanRec, TraceData

#: Attribution categories, in tie-break precedence order.
CAT_EDGE = "edge-link"
CAT_CORE = "core-link"
CAT_BOX = "box-compute"
CAT_RETRY = "shim-retry"
CATEGORIES = (CAT_EDGE, CAT_CORE, CAT_BOX, CAT_RETRY)

_TIER_TO_CATEGORY = {
    "edge": CAT_EDGE,
    "core": CAT_CORE,
    "box": CAT_BOX,
}

#: Shim instants that mark a probe as retry-dominated.
_RETRY_INSTANTS = ("shim.retry", "shim.breaker-open")


@dataclass
class RequestPath:
    """One request's critical path and its layer attribution."""

    request: str
    seconds: Dict[str, float]
    chain: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {cat: 0.0 for cat in CATEGORIES}
        return {cat: self.seconds[cat] / total for cat in CATEGORIES}

    @property
    def dominant(self) -> str:
        return max(CATEGORIES, key=lambda c: self.seconds[c])


def _zero_seconds() -> Dict[str, float]:
    return {cat: 0.0 for cat in CATEGORIES}


def _binding(path_links: List[str], start: float, end: float,
             series: Mapping[str, LinkSeries]) -> Tuple[Optional[str], str]:
    """The flow's binding link and its category (module docstring)."""
    best: Optional[str] = None
    best_integral = -1.0
    for link in path_links:
        track = series.get(link)
        if track is None:
            continue
        integral = track.integrate(start, end)
        if integral > best_integral:  # strict: ties keep the earlier hop
            best, best_integral = link, integral
    if best is not None:
        return best, _TIER_TO_CATEGORY[link_tier(best)]
    # No sampled link (empty path, or only virtual hops): classify
    # statically by the "deepest" tier the path touches.
    tiers = {link_tier(link) for link in path_links}
    if TIER_BOX in tiers:
        return None, CAT_BOX
    if TIER_CORE in tiers:
        return None, CAT_CORE
    return None, CAT_EDGE


def simulator_paths(run: RunView,
                    series: Mapping[str, LinkSeries]) -> List[RequestPath]:
    """Critical paths of every aggregation job in one simulator run."""
    jobs: Dict[str, Dict[str, SpanRec]] = {}
    for span in run.spans:
        if span.name != "flow":
            continue
        job = str(span.tags.get("job", ""))
        if not job:
            continue
        jobs.setdefault(job, {})[str(span.tags.get("flow", ""))] = span

    paths: List[RequestPath] = []
    for job in sorted(jobs):
        flows = jobs[job]
        child_ids = set()
        for span in flows.values():
            child_ids.update(_children(span))
        roots = [fid for fid in flows if fid not in child_ids]
        if not roots:
            continue  # cycle or truncated trace; nothing to anchor on
        root = max(roots, key=lambda fid: (flows[fid].end, fid))
        seconds = _zero_seconds()
        chain: List[Dict[str, object]] = []
        cursor: Optional[str] = root
        while cursor is not None:
            span = flows[cursor]
            links = [l for l in str(span.tags.get("path", "")).split("|") if l]
            link, category = _binding(links, span.start, span.end, series)
            seconds[category] += span.duration
            chain.append({
                "flow": cursor,
                "kind": str(span.tags.get("kind", "")),
                "category": category,
                "link": link or "",
                "duration": span.duration,
            })
            kids = [fid for fid in _children(span) if fid in flows]
            cursor = max(kids, key=lambda fid: (flows[fid].end, fid)) \
                if kids else None
        paths.append(RequestPath(request=job, seconds=seconds, chain=chain))
    return paths


def _children(span: SpanRec) -> List[str]:
    return [c for c in str(span.tags.get("children", "")).split("|") if c]


def platform_paths(trace: TraceData) -> List[RequestPath]:
    """Critical-path attribution for every platform request in a trace."""
    paths: List[RequestPath] = []
    for envelope in trace.request_spans():
        rid = str(envelope.tags.get("request", ""))
        if not rid:
            continue

        def match(tag: object) -> bool:
            key = str(tag)
            return key == rid or key.startswith((rid + "@", rid + "/"))

        lo, hi = envelope.seq, _next_request_seq(trace, envelope)
        inside = [s for s in trace.spans if lo < s.seq < hi]
        instants = [i for i in trace.instants if lo < i.seq < hi]

        seconds = _zero_seconds()
        chain: List[Dict[str, object]] = []
        box_windows: List[SpanRec] = []
        for span in inside:
            if span.name == "box.emit" \
                    and str(span.tags.get("origin", "")) == rid:
                seconds[CAT_BOX] += span.duration
                box_windows.append(span)
        retry_marks = [i.at for i in instants
                       if i.name in _RETRY_INSTANTS
                       and match(i.tags.get("request"))]
        for span in inside:
            if span.name == "platform.probe" \
                    and match(span.tags.get("request")):
                dirty = any(span.start <= at <= span.end
                            for at in retry_marks)
                category = CAT_RETRY if dirty else CAT_EDGE
                seconds[category] += span.duration
                if dirty and span.duration > 0:
                    chain.append({
                        "probe": str(span.tags.get("target", "")),
                        "category": category,
                        "duration": span.duration,
                    })
            elif span.name == "platform.deliver" \
                    and match(span.tags.get("request")):
                nested = sum(
                    b.duration for b in box_windows
                    if span.start <= b.start and b.end <= span.end
                    and span.seq < b.seq)
                seconds[CAT_EDGE] += max(0.0, span.duration - nested)
        for instant in instants:
            if not match(instant.tags.get("request")):
                continue
            if instant.name == "shim.churn":
                until = float(instant.tags.get("until", instant.at))
                seconds[CAT_RETRY] += max(0.0, until - instant.at)
            elif instant.name == "shim.degraded":
                seconds[CAT_RETRY] += float(instant.tags.get("cost", 0.0))
        paths.append(RequestPath(request=rid, seconds=seconds, chain=chain))
    return paths


def _next_request_seq(trace: TraceData, envelope: SpanRec) -> float:
    """Upper seq bound of a request envelope: the next envelope's seq.

    Requests execute sequentially on the platform's virtual clock, so
    everything recorded between consecutive ``platform.request`` spans
    belongs to the earlier one.
    """
    for span in trace.request_spans():
        if span.seq > envelope.seq:
            return span.seq
    return float("inf")


def link_credit(paths: List[RequestPath]) -> Dict[str, float]:
    """Critical-path seconds credited to each binding link.

    ``credit[link]`` is the total request time for which ``link`` was
    the constraint that set a critical-path segment's rate -- "this
    link cost the workload X seconds of FCT".  The bottleneck table
    ranks by it: unlike raw busy fractions (which long-lived background
    flows dominate), credit measures what actually slowed requests.
    """
    credit: Dict[str, float] = {}
    for path in paths:
        for hop in path.chain:
            link = str(hop.get("link", ""))
            if link:
                credit[link] = credit.get(link, 0.0) \
                    + float(hop.get("duration", 0.0))
    return credit


def aggregate_paths(paths: List[RequestPath],
                    top: int = 5) -> Dict[str, object]:
    """Fold per-request paths into one summary (JSON-ready)."""
    if not paths:
        return {}
    seconds = _zero_seconds()
    for path in paths:
        for cat in CATEGORIES:
            seconds[cat] += path.seconds[cat]
    total = sum(seconds.values())
    fractions = {cat: (seconds[cat] / total if total > 0 else 0.0)
                 for cat in CATEGORIES}
    ranked = sorted(paths, key=lambda p: (-p.total, p.request))
    return {
        "requests": len(paths),
        "attributed_seconds": total,
        "seconds": seconds,
        "fractions": fractions,
        "dominant": max(CATEGORIES, key=lambda c: seconds[c]),
        "top": [
            {"request": p.request, "total": p.total,
             "fractions": p.fractions, "dominant": p.dominant}
            for p in ranked[:top]
        ],
    }

"""fig_partition -- availability and completeness under partitions.

Not a paper figure: the partition-tolerance face of the robustness
plane (PR 8).  A fixed stream of query requests -- coordinators pinned
to pod 0, the control pod, workers spread uniformly -- replays against
a live :class:`repro.serve.AggregationService` while a sweep of
``net-partition`` fault domains cuts a growing fraction of the pods
off, and one pod-0 box runs *gray* (heartbeat-healthy, two orders of
magnitude slow) for the whole run.  Two arms per severity:

- ``base``: ``partition=False`` -- the fail-stop baseline.  A request
  with any worker behind the partition is a 503, and deliveries into
  the gray box are waited out in full (the heartbeat machinery cannot
  see it);
- ``resil``: ``partition=True`` -- partial delivery, hedged sends and
  gray avoidance on.  Unreachable workers are dropped and answered as
  206 with a completeness record (gated by the service's
  ``MIN_COMPLETENESS`` floor), and the gray box is raced against the
  hedge deadline, then planned out once the latency-outlier detector
  flags it.

Availability counts requests *answered* (200 or 206) within the SLO
over requests offered.  The claim: at moderate severity (one pod of
four cut) the resilient arm stays >= 0.95 available while the
fail-stop baseline drops below 0.6; completeness degrades smoothly
with severity and is never mislabelled (the 206 bodies carry exact
missing-worker sets, pinned by the chaos suite).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments import register
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale
from repro.faults import (
    BOX_GRAY,
    FaultEvent,
    FaultSchedule,
    NET_PARTITION,
)
from repro.serve.service import (
    AggregationService,
    ServeConfig,
    TenantPolicy,
)
from repro.serve.stats import STATUS_OK, STATUS_PARTIAL
from repro.topology.base import HOST
from repro.units import percentile
from repro.workload.openloop import OP_QUERY, pick_endpoints

#: Fraction of the topology's pods cut off by the partition.
SEVERITIES = (0.0, 0.25, 0.5)

#: End-to-end latency SLO (virtual seconds).
SLO = 0.25

#: Workers per request.
WORKERS = 8

#: Slow-down factor of the gray pod-0 box: one delivery waited out in
#: full (0.4s at the default 1ms send latency) blows the SLO, a hedged
#: one does not.
GRAY_SEVERITY = 400.0

#: Requests replayed per (severity, arm) point, by scale name.
_REQUESTS = {"quick": 40, "bench": 60}
_REQUESTS_DEFAULT = 100


@register("fig_partition")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        severities: Sequence[float] = SEVERITIES) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig_partition",
        description="availability and completeness vs partition "
                    "severity, fail-stop baseline (base) vs partial "
                    "delivery + hedging (resil)",
        columns=("severity", "pods_cut", "base_avail", "resil_avail",
                 "resil_206", "mean_completeness", "hedges",
                 "base_p99", "resil_p99"),
        notes=f"availability = answered (200/206) within the {SLO:g}s "
              "SLO / offered; coordinators pinned to pod 0; one pod-0 "
              f"box gray (x{GRAY_SEVERITY:g}) throughout; completeness "
              "averaged over answered requests",
    )
    n_requests = _REQUESTS.get(scale.name, _REQUESTS_DEFAULT)
    probe = AggregationService(ServeConfig(topo=scale.topo))
    topo = probe.platform.topology
    hosts = sorted(topo.hosts())
    pod_of = {n.node_id: n.pod for n in topo.nodes(HOST)}
    seeds = _pod0_seeds(hosts, pod_of, n_requests, start=seed)
    gray_box = _pod0_box(topo)
    n_pods = scale.topo.n_pods
    for severity in sorted(severities):
        pods_cut = round(severity * n_pods)
        schedule = _schedule(n_pods, pods_cut, gray_box)
        base = _arm(scale, schedule, seeds, partition=False)
        resil = _arm(scale, schedule, seeds, partition=True)
        result.add_row(
            severity=severity,
            pods_cut=pods_cut,
            base_avail=base["avail"],
            resil_avail=resil["avail"],
            resil_206=resil["partial"],
            mean_completeness=resil["completeness"],
            hedges=resil["hedges"],
            base_p99=base["p99"],
            resil_p99=resil["p99"],
        )
    return result


def _pod0_seeds(hosts: Sequence[str], pod_of: Dict[str, int],
                count: int, start: int = 1) -> List[int]:
    """Payload seeds whose master lands in pod 0 (the control pod).

    Coordinators live in the un-partitioned pod by construction -- the
    experiment measures worker-subtree partitions, not a dead master.
    """
    seeds: List[int] = []
    candidate = start
    while len(seeds) < count:
        master, _ = pick_endpoints(hosts, candidate, WORKERS)
        if pod_of[master] == 0:
            seeds.append(candidate)
        candidate += 1
    return seeds


def _pod0_box(topo) -> str:
    """The first agg box attached in pod 0 (the gray victim)."""
    for info in sorted(topo.all_boxes(), key=lambda b: b.box_id):
        if topo.pod_of(info.box_id) == 0:
            return info.box_id
    raise RuntimeError("no agg box deployed in pod 0")


def _schedule(n_pods: int, pods_cut: int, gray_box: str) -> FaultSchedule:
    """Partition the highest-numbered ``pods_cut`` pods, gray one box.

    ``duration=0`` makes the partitions permanent (the sweep measures
    steady-state severity, not heal dynamics -- the chaos suite covers
    healing).
    """
    events = [
        FaultEvent(time=0.5, kind=NET_PARTITION, target=f"pod:{pod}",
                   duration=0.0)
        for pod in range(n_pods - pods_cut, n_pods)
    ]
    events.append(FaultEvent(time=0.5, kind=BOX_GRAY, target=gray_box,
                             duration=1e9, severity=GRAY_SEVERITY))
    return FaultSchedule(events)


def _arm(scale: SimScale, schedule: FaultSchedule,
         seeds: Sequence[int], partition: bool) -> Dict[str, float]:
    service = AggregationService(ServeConfig(
        topo=scale.topo,
        default_policy=TenantPolicy(slo=SLO),
        admission=False,
        faults=schedule,
        partition=partition,
    ))
    service.platform.advance_clock(1.0)
    answered: List[Tuple[float, float]] = []  # (latency, completeness)
    hedges = 0
    for i, payload_seed in enumerate(seeds):
        response = service.handle({
            "op": OP_QUERY, "tenant": "tenant-a", "id": f"r{i}",
            "payload_seed": payload_seed, "workers": WORKERS,
        })
        hedges += int(response.get("hedges", 0))
        if response["status"] in (STATUS_OK, STATUS_PARTIAL):
            completeness = response.get("completeness", {})
            answered.append((
                float(response["latency"]),
                float(completeness.get("fraction", 1.0)),
            ))
    within = [lat for lat, _ in answered if lat <= SLO]
    latencies = [lat for lat, _ in answered]
    partial = service.report.stats("tenant-a").partial
    return {
        "avail": len(within) / len(seeds) if seeds else 0.0,
        "partial": partial / len(seeds) if seeds else 0.0,
        "completeness": (sum(f for _, f in answered) / len(answered)
                         if answered else 0.0),
        "hedges": float(hedges),
        "p99": percentile(latencies, 99.0) if latencies else 0.0,
    }

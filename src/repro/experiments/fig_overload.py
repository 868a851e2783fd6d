"""fig_overload -- goodput and p99 FCT vs offered load under overload.

Not a paper figure: the flow-level face of the overload-control plane
(PR 3).  Offered load scales the workload's flow count over a fixed
arrival span while a seeded schedule of ``box-overload`` (service
slow-down) and ``box-shed`` (refused ingress) windows -- sized with the
load factor -- replays against three strategies:

- ``ctrl``: NetAgg *with* overload control: the planner consults a
  deterministic admission view (per-box token buckets over job
  arrivals, plus the schedule's overload/shed windows) and re-plans new
  jobs' trees away from saturated boxes, the way a NACKed sender walks
  its degradation ladder;
- ``nc``: NetAgg *without* control: every job uses its planned boxes
  regardless of saturation, so flows pile into slowed processing links;
- ``edge``: a binary edge-server tree (no boxes to overload).

Goodput counts the bytes of worker flows completing within a fixed SLO
(a multiple of the uncongested p99 FCT), divided by the run's horizon.
With control, goodput should degrade gracefully as load grows; without,
it falls off a cliff once the overload windows trap enough traffic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.aggregation import (
    BinaryTreeStrategy,
    NetAggStrategy,
    deploy_boxes,
)
from repro.core.admission import TokenBucket
from repro.core.tree import TreeBuilder
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
    simulate,
)
from repro.faults import FaultSchedule
from repro.netsim.metrics import fct_summary
from repro.topology.base import Topology
from repro.topology.threetier import three_tier
from repro.workload.synthetic import AggJob

LOADS = (0.5, 1.0, 1.5, 2.0, 3.0)

#: The SLO is this multiple of the uncongested (no-fault, lowest-load)
#: NetAgg p99 FCT; goodput counts bytes landing inside it.
SLO_MULTIPLIER = 4.0

#: Fraction of a box's processing capacity the plan-time token bucket
#: admits as sustained load (headroom for bursts and background flows).
ADMIT_FRACTION = 0.7

#: Arrival span (seconds) the offered load is spread over.
ARRIVAL_SPAN = 2.0


class OverloadAdmission:
    """Plan-time admission view over a job stream (the ``ctrl`` arm).

    For each job (in arrival order -- planning order is arrival order,
    which keeps the buckets deterministic) the job's prospective trees
    are built and each participating box is charged its share of the
    job's bytes against a per-box token bucket refilling at
    ``ADMIT_FRACTION`` of the box's processing capacity.  A box denies
    the job when its bucket is dry *or* the fault schedule has it
    inside an overload/shed window at the job's start -- the flow-level
    stand-in for the platform's health feed.  Denied boxes are rewired
    out of that job's trees (spill-to-parent, ultimately direct to the
    master), exactly like a NACKed sender walking its ladder.
    """

    def __init__(self, topo: Topology,
                 schedule: Optional[FaultSchedule]) -> None:
        self._topo = topo
        self._schedule = schedule
        self._builder = TreeBuilder(topo)
        capacities = topo.network.capacities()
        self._buckets = {
            info.box_id: TokenBucket(
                rate=ADMIT_FRACTION * capacities[info.proc_link],
                burst=ADMIT_FRACTION * capacities[info.proc_link],
            )
            for info in topo.all_boxes()
        }
        self.denials = 0

    def view(self, job: AggJob) -> Set[str]:
        """Boxes this job must plan around (the strategy's fault view)."""
        t = job.start_time
        trees = self._builder.build_many(
            job.job_id, job.master, [h for h, _ in job.workers], job.n_trees,
        )
        boxes = sorted({b for tree in trees for b in tree.boxes})
        if not boxes:
            return set()
        denied: Set[str] = set()
        share = job.total_bytes / len(boxes)
        for box_id in boxes:
            if self._schedule is not None and (
                    self._schedule.shedding_at(box_id, t)
                    or self._schedule.overload_at(box_id, t) > 1.0):
                denied.add(box_id)
                continue
            if not self._buckets[box_id].try_take(t, share):
                denied.add(box_id)
        self.denials += len(denied)
        return denied


def _loaded_scale(scale: SimScale, load: float) -> SimScale:
    """Scale the offered load: more flows over the same arrival span."""
    return scale.with_workload(
        n_flows=max(8, int(scale.workload.n_flows * load)),
        arrival_process="uniform",
        arrival_span=ARRIVAL_SPAN,
    )


def _make_schedule(scale: SimScale, load: float,
                   seed: int) -> Optional[FaultSchedule]:
    """Overload/shed windows scaled with the load factor *and* the
    deployment size, so saturation tracks the boxes actually in use at
    every scale (a fixed window count vanishes into a large topology).
    """
    topo = three_tier(scale.topo)
    deploy_boxes(topo)
    boxes = sorted(info.box_id for info in topo.all_boxes())
    overloads = int(load * max(4, len(boxes)))
    sheds = int(load * max(2, len(boxes) // 2))
    if overloads + sheds == 0:
        return None
    return FaultSchedule.generate(
        seed=seed * 6007 + int(load * 1000),
        duration=ARRIVAL_SPAN,
        boxes=boxes,
        overloads=overloads,
        sheds=sheds,
    )


def _goodput(result, slo: float) -> float:
    """Fraction of offered worker bytes whose FCT lands within the SLO.

    1.0 = every partial delivered in time; a cliff shows as a sharp
    drop once queueing delay blows through the SLO.
    """
    offered = 0.0
    within = 0.0
    for record in result.records.values():
        if record.spec.kind != "worker":
            continue
        offered += record.spec.size
        if record.fct <= slo:
            within += record.spec.size
    return within / max(offered, 1e-9)


def _run_arm(scale: SimScale, arm: str, seed: int,
             schedule: Optional[FaultSchedule]) -> tuple:
    """(result, denials) of one strategy at one load point."""
    denials = 0
    if arm == "ctrl":
        topo = three_tier(scale.topo)
        deploy_boxes(topo)
        admission = OverloadAdmission(topo, schedule)
        strategy = NetAggStrategy(name="netagg-ctrl",
                                  fault_view=admission.view)
        result = simulate(scale, strategy, deploy=deploy_boxes, seed=seed,
                          faults=schedule)
        denials = admission.denials
    elif arm == "nc":
        result = simulate(scale, NetAggStrategy(), deploy=deploy_boxes,
                          seed=seed, faults=schedule)
    else:
        result = simulate(scale, BinaryTreeStrategy(), seed=seed,
                          faults=schedule)
    return result, denials


@register("fig_overload")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        loads: Sequence[float] = LOADS) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig_overload",
        description="goodput and p99 FCT vs offered load, with/without "
                    "overload control",
        columns=("load", "ctrl_goodput", "nc_goodput", "edge_goodput",
                 "ctrl_p99", "nc_p99", "edge_p99", "ctrl_denials"),
        notes="goodput = fraction of offered worker bytes within SLO "
              f"({SLO_MULTIPLIER:g}x uncongested p99); denials = plan-time "
              "(job, box) admission refusals in the ctrl arm",
    )
    # The SLO anchors to an uncongested run: lowest load, no schedule.
    reference, _ = _run_arm(_loaded_scale(scale, min(loads)), "nc", seed,
                            None)
    slo = SLO_MULTIPLIER * fct_summary(reference, empty_ok=True).p99
    for load in sorted(loads):
        loaded = _loaded_scale(scale, load)
        schedule = _make_schedule(scale, load, seed)
        ctrl, denials = _run_arm(loaded, "ctrl", seed, schedule)
        nc, _ = _run_arm(loaded, "nc", seed, schedule)
        edge, _ = _run_arm(loaded, "edge", seed, schedule)
        result.add_row(
            load=load,
            ctrl_goodput=_goodput(ctrl, slo),
            nc_goodput=_goodput(nc, slo),
            edge_goodput=_goodput(edge, slo),
            ctrl_p99=fct_summary(ctrl, empty_ok=True).p99,
            nc_p99=fct_summary(nc, empty_ok=True).p99,
            edge_p99=fct_summary(edge, empty_ok=True).p99,
            ctrl_denials=denials,
        )
    return result

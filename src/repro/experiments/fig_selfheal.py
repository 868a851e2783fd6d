"""fig_selfheal -- the self-healing control loop under drifting load.

Not a paper figure: the flow-level face of the optimizer control plane
(``repro.core.optimizer``).  A drifting Zipfian workload concentrates
each phase's jobs onto one hot rack, and the hot rack's ToR box is
simultaneously degraded (a ``box-overload`` processing slow-down that
*follows the drift*): think of a box whose co-tenant steals its cores
exactly where the traffic lands -- the situation §4's "adapt to
changing network conditions" argument is about.  Two arms replay the
same workload against the same degradation schedule:

- ``opt``: NetAgg with the control loop ticking at every job arrival.
  The loop's utilization feed is the plan-time concurrent fan-in
  demand over each box's *effective* (degradation-adjusted)
  processing rate -- the flow-level stand-in for the platform's
  pressure heartbeats; the ``rebalance_hot_edges`` strategy drains
  boxes above the hot threshold and returns drained boxes to the
  planner once the hotspot drifts away and they cool below the cold
  threshold.  The drained set feeds ``NetAggStrategy``'s fault view,
  so later jobs rewire around drained boxes through the §3.1 path and
  their aggregation lands on boxes with headroom.
- ``noopt``: the same drifting workload and degradations, no control
  loop; every job piles onto the momentarily-hot, slowed box.

The headline metric is the **SLO-violation fraction**: the share of
offered worker bytes whose flow completes outside a fixed SLO (a
multiple of the uncongested p99 FCT).  With the optimizer on it should
strictly dominate (be lower than) the optimizer-off arm at every load
point where violations occur at all.

Every optimizer decision is traced: ``python -m repro analyze --run
fig_selfheal`` shows the drains in the diagnosis's ``optimizer``
section, attributed by target box and reason.  The table's
``migrations`` column counts applied drains.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Sequence, Set, Tuple

from repro.aggregation import NetAggStrategy, deploy_boxes
from repro.core.failure import rewire_out
from repro.core.optimizer import DRAIN, tick
from repro.core.tree import TreeBuilder
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
    simulate,
)
from repro.faults import FaultEvent, FaultSchedule, SimFaultInjector
from repro.faults.schedule import BOX_OVERLOAD
from repro.netsim.metrics import fct_summary
from repro.netsim.simulator import FlowSim
from repro.topology.base import Topology, link_id
from repro.topology.threetier import three_tier
from repro.workload.synthetic import AggJob, Workload, generate_workload

LOADS = (1.0, 1.5, 2.0, 3.0)

#: SLO = this multiple of the uncongested (unskewed, lowest-load) p99.
SLO_MULTIPLIER = 4.0

#: Arrival span (seconds) the offered load is spread over.
ARRIVAL_SPAN = 2.0

#: Number of hot-rack phases the Zipf rank permutation rotates through.
DRIFT_PHASES = 4

#: Zipf exponent over rack ranks (rank 1 = the phase's hot rack).
ZIPF_S = 1.4

#: Sliding window (seconds) of the plan-time fan-in account: jobs
#: arriving within this window are treated as concurrent demand.
UTIL_WINDOW = 0.25

#: Processing slow-down on the hot rack's ToR box during its phase.
DEGRADE_SEVERITY = 16.0


def _loaded_scale(scale: SimScale, load: float) -> SimScale:
    return scale.with_workload(
        n_flows=max(8, int(scale.workload.n_flows * load)),
        arrival_process="uniform",
        arrival_span=ARRIVAL_SPAN,
    )


def _phase_offset(phase: int, n_racks: int) -> int:
    """Rack index the Zipf rank permutation starts at in ``phase``."""
    return (phase * max(1, n_racks // DRIFT_PHASES)) % n_racks


def _tor_box_of_rack(topo: Topology) -> Dict[int, str]:
    """rack index -> the ToR-tier agg box serving that rack."""
    boxes: Dict[int, str] = {}
    for info in topo.all_boxes():
        node = topo.node(info.box_id)
        if info.box_id.startswith("box:tor:") and node.rack >= 0:
            boxes.setdefault(node.rack, info.box_id)
    return boxes


def drift_schedule(topo: Topology) -> FaultSchedule:
    """Degradation windows following the drifting hot rack.

    Each drift phase slows the phase's hot-rack ToR box by
    ``DEGRADE_SEVERITY`` for the phase's slice of the arrival span
    (plus a tail while its flows drain) -- the co-moving interference
    the optimizer exists to route around.
    """
    racks = _rack_hosts(topo)
    tor_boxes = _tor_box_of_rack(topo)
    phase_len = ARRIVAL_SPAN / DRIFT_PHASES
    events = []
    for phase in range(DRIFT_PHASES):
        rack = _phase_offset(phase, len(racks))
        box_id = tor_boxes.get(rack)
        if box_id is None:
            continue
        events.append(FaultEvent(
            time=phase * phase_len,
            kind=BOX_OVERLOAD,
            target=box_id,
            severity=DEGRADE_SEVERITY,
            duration=phase_len * 1.25,
        ))
    return FaultSchedule(events)


def _rack_hosts(topo: Topology) -> List[List[str]]:
    """Hosts grouped by rack, rack index order."""
    racks: Dict[int, List[str]] = {}
    for host in sorted(topo.hosts()):
        racks.setdefault(topo.rack_of(host), []).append(host)
    return [racks[r] for r in sorted(racks)]


def _zipf_rank(rng: random.Random, n: int) -> int:
    """One Zipf(ZIPF_S) draw over ranks ``0..n-1`` (0 = hottest)."""
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n)]
    total = sum(weights)
    pick = rng.random() * total
    for rank, weight in enumerate(weights):
        pick -= weight
        if pick <= 0.0:
            return rank
    return n - 1


def skew_workload(workload: Workload, topo: Topology,
                  seed: int) -> Workload:
    """Re-place workers under a drifting Zipfian rack distribution.

    Each job's workers move to hosts drawn rack-first: the rack comes
    from a Zipf distribution over rack *ranks*, and the rank-to-rack
    permutation rotates once per drift phase (phase = which slice of
    the arrival span the job starts in), so the hot rack walks across
    the deployment during the run.  Job arrivals are re-spread evenly
    over the span (the generator's sorted-arrival pool clusters the
    job stream at the front, which would collapse every job into phase
    0); flow sizes, masters and background traffic are untouched --
    the skew moves only *where* and *when* aggregation happens.
    """
    racks = _rack_hosts(topo)
    n_racks = len(racks)
    rng = random.Random(seed * 9176 + 13)
    jobs: List[AggJob] = []
    ordered = sorted(workload.jobs, key=lambda j: (j.start_time, j.job_id))
    for index, job in enumerate(ordered):
        start = ARRIVAL_SPAN * (index + 0.5) / len(ordered)
        phase = min(DRIFT_PHASES - 1,
                    int(start / ARRIVAL_SPAN * DRIFT_PHASES))
        offset = _phase_offset(phase, n_racks)
        used = {job.master}
        hosts: List[str] = []
        for _ in job.workers:
            rank = _zipf_rank(rng, n_racks)
            host = None
            for step in range(n_racks):
                rack = racks[(offset + rank + step) % n_racks]
                free = [h for h in rack if h not in used]
                if free:
                    host = free[rng.randrange(len(free))]
                    break
            if host is None:  # deployment smaller than the job
                host = racks[(offset + rank) % n_racks][0]
            used.add(host)
            hosts.append(host)
        workers = tuple(
            (host, size) for host, (_, size) in zip(hosts, job.workers)
        )
        jobs.append(replace(job, workers=workers, start_time=start))
    return Workload(jobs=jobs, background=list(workload.background))


class SelfHealController:
    """Plan-time control loop for the ``opt`` arm.

    ``view(job)`` is installed as ``NetAggStrategy``'s fault view, so
    it runs once per job in arrival order: it advances the utilization
    window to the job's start, ticks the optimizer on its ``drained``
    set (``rebalance_hot_edges``, then drain/undrain, ``optimizer.*``
    trace records included), charges the job's surviving tree boxes,
    and returns the drained set for the strategy to rewire around.
    """

    def __init__(self, topo: Topology, schedule: FaultSchedule) -> None:
        self._topo = topo
        self._schedule = schedule
        self._builder = TreeBuilder(topo)
        capacities = topo.network.capacities()
        self._capacity = {
            info.box_id: capacities[info.proc_link]
            for info in topo.all_boxes()
        }
        self._edge = {
            host: capacities[link_id(host, topo.tor_of(host))]
            for host in topo.hosts()
        }
        self._charges: List[Tuple[float, str, float]] = []
        self.drained: Set[str] = set()
        self.drains = 0
        self.undrains = 0

    def _utilization(self, now: float) -> Dict[str, float]:
        """Concurrent fan-in demand over *effective* processing rate.

        Each worker of each recent job offers its edge-link rate into
        its entry box while its flow drains; summing those rates over
        the window and dividing by the box's degradation-adjusted
        processing rate puts the saturation point at 1.0.  The
        degradation factor is the plan-time stand-in for the box's own
        pressure heartbeat (a deployed box knows its service rate
        collapsed; the planner learns it here the same way
        ``fig_overload``'s admission view does).
        """
        demand = {box_id: 0.0 for box_id in self._capacity}
        for at, box_id, rate in self._charges:
            if at > now - UTIL_WINDOW:
                demand[box_id] += rate
        return {
            box_id: total * self._schedule.overload_at(box_id, now)
            / self._capacity[box_id]
            for box_id, total in demand.items()
        }

    def view(self, job: AggJob) -> Set[str]:
        t = job.start_time
        self._charges = [c for c in self._charges
                         if c[0] > t - UTIL_WINDOW]
        applied = tick(t, self._utilization(t), self.drained)
        drains = sum(1 for kind, _, _ in applied if kind == DRAIN)
        self.drains += drains
        self.undrains += len(applied) - drains
        # Charge the boxes this job will actually use: build its trees,
        # rewire the drained boxes out exactly as the strategy will,
        # and charge each worker's edge rate to its entry box.
        trees = self._builder.build_many(
            job.job_id, job.master, [h for h, _ in job.workers],
            job.n_trees,
        )
        for tree in trees:
            tree = rewire_out(tree, self.drained)
            for index, (host, _) in enumerate(job.workers):
                entry = tree.worker_entry[index]
                if entry is not None:
                    self._charges.append((t, entry, self._edge[host]))
        return self.drained


def _violations(result, slo: float) -> float:
    """SLO-violation fraction: offered worker bytes landing late."""
    offered = 0.0
    late = 0.0
    for record in result.records.values():
        if record.spec.kind != "worker":
            continue
        offered += record.spec.size
        if record.fct > slo:
            late += record.spec.size
    return late / max(offered, 1e-9)


def _run_arm(scale: SimScale, arm: str, seed: int) -> tuple:
    """(result, controller) of one arm at one load point."""
    topo = three_tier(scale.topo)
    deploy_boxes(topo)
    schedule = drift_schedule(topo)
    workload = skew_workload(
        generate_workload(topo, scale.workload, seed=seed), topo, seed)
    controller = None
    if arm == "opt":
        controller = SelfHealController(topo, schedule)
        strategy = NetAggStrategy(name="netagg-selfheal",
                                  fault_view=controller.view)
    else:
        strategy = NetAggStrategy(name="netagg-drift")
    sim = FlowSim(topo.network, label=strategy.name)
    sim.add_flows(strategy.plan(workload, topo, None))
    SimFaultInjector(topo, schedule).apply(sim, workload)
    return sim.run(), controller


@register("fig_selfheal")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        loads: Sequence[float] = LOADS) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig_selfheal",
        description="SLO-violation fraction under drifting Zipfian "
                    "load, with/without the self-healing optimizer",
        columns=("load", "opt_viol", "noopt_viol", "opt_p99",
                 "noopt_p99", "migrations", "undrains"),
        notes="viol = fraction of offered worker bytes finishing past "
              f"the SLO ({SLO_MULTIPLIER:g}x uncongested p99); "
              "migrations/undrains = optimizer actions applied in the "
              "opt arm (see the trace's optimizer.* records)",
    )
    # The SLO anchors to an uncongested, unskewed run at the lowest load.
    reference = simulate(_loaded_scale(scale, min(loads)),
                         NetAggStrategy(), deploy=deploy_boxes, seed=seed)
    slo = SLO_MULTIPLIER * fct_summary(reference, empty_ok=True).p99
    for load in sorted(loads):
        loaded = _loaded_scale(scale, load)
        opt, controller = _run_arm(loaded, "opt", seed)
        noopt, _ = _run_arm(loaded, "noopt", seed)
        result.add_row(
            load=load,
            opt_viol=_violations(opt, slo),
            noopt_viol=_violations(noopt, slo),
            opt_p99=fct_summary(opt, empty_ok=True).p99,
            noopt_p99=fct_summary(noopt, empty_ok=True).p99,
            migrations=controller.drains,
            undrains=controller.undrains,
        )
    return result

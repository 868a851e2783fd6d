"""``sim_fct`` and ``sim_paper``: the flow simulator behind Figs. 6-15.

One unit of work is one simulation -- the five public steps of
``repro.experiments.common.simulate`` (build the topology and deploy
boxes, generate the workload, plan it, add the flows, run) -- and one op
is one simulated event.

How ``--seed`` enters.  The generator's workloads are heavy-tailed, and
host cost per event follows the tail: across generator seeds it differs
with a coefficient of variation of 6 % at DEFAULT scale and over 10 % at
PAPER scale (the solver resolves 111 k to 156 k flows for the same 5.3 k
events), so a run would need a dozen DEFAULT or several dozen PAPER
workloads to average that below a useful bound, and there is time for
about forty quarter-second units.  The inputs are therefore the
generator's workloads for one fixed generator seed -- ``GENERATOR_SEED``,
the one behind every number in EXPERIMENTS.md -- with every flow size
multiplied by one factor in [1, 2) drawn from ``--seed``.
Scaling all sizes scales every completion time and changes no
scheduling decision (``netsim.events``, ``.epochs`` and
``.solver.flows_resolved`` are identical for every factor), so every
seed costs the same and produces different FCTs.
"""

from __future__ import annotations

import math
import random
import struct
import zlib
from dataclasses import replace
from typing import Dict, Sequence

from repro.aggregation import (
    BinaryTreeStrategy,
    ChainStrategy,
    NetAggStrategy,
    RackLevelStrategy,
    deploy_boxes,
)
from repro.experiments.common import DEFAULT, PAPER, QUICK, SimScale, simulate
from repro.netsim.vectorized import make_solver
from repro.netsim.simulator import FlowSim, SimulationResult
from repro.obs import METRICS
from repro.topology.threetier import three_tier
from repro.workload.synthetic import Workload as Flows, generate_workload

from trace import NULL
from workload import TraceRun, Workload

#: The four Fig. 6 strategies: (factory, box deployment).
FIG6 = (
    (RackLevelStrategy, None),
    (BinaryTreeStrategy, None),
    (ChainStrategy, None),
    (NetAggStrategy, deploy_boxes),
)
NETAGG = FIG6[3:]
GENERATOR_SEED = 1

#: ``netsim.*`` registry counters reported per pass over the inputs.
COUNTERS = ("netsim.events", "netsim.epochs", "netsim.solver.solves",
            "netsim.solver.cache_hits", "netsim.solver.flows_resolved",
            "netsim.solver.flows_reused")


def fct_crc(result: SimulationResult) -> int:
    fcts = sorted(result.fcts())
    return zlib.crc32(struct.pack(f"<{len(fcts)}d", *fcts))


def rescaled(flows: Flows, factor: float) -> Flows:
    """``flows`` with every flow size multiplied by ``factor``."""
    return Flows(
        jobs=[replace(job, workers=tuple((host, size * factor)
                                         for host, size in job.workers))
              for job in flows.jobs],
        background=[replace(flow, size=flow.size * factor)
                    for flow in flows.background])


class SimWorkload(Workload):
    span_metrics = {
        "topology.build": "topology.build_ms",
        "workload.generate": "workload.generate_ms",
        "aggregation.plan": "aggregation.plan_ms",
        "netsim.simulator.add_flows": "netsim.simulator.add_flows_ms",
        "netsim.simulator.run": "netsim.simulator.run_ms",
    }

    def __init__(self, scale: SimScale, strategies: Sequence[tuple],
                 min_samples: int) -> None:
        super().__init__()
        self._scale = scale
        self._strategies = strategies
        self.min_samples = min_samples
        self.units = len(strategies)
        self._factor = 1.0
        self._events_seen = 0

    def setup(self, seed: int) -> None:
        self._factor = 1.0 + random.Random(seed).random()
        # Warm-up: first-call costs (numpy dispatch tables, lazy
        # imports) on a small topology, once per strategy.
        for factory, deploy in self._strategies:
            simulate(QUICK, factory(), deploy=deploy, seed=seed)
        self._events_seen = _events()

    # -- the timed call ---------------------------------------------------

    def run_unit(self, unit: int, rec):
        """``simulate()``'s own steps, one span around each."""
        factory, deploy = self._strategies[unit]
        strategy = factory()
        with rec.span("topology.build"):
            topo = three_tier(self._scale.topo)
            if deploy is not None:
                deploy(topo)
        with rec.span("workload.generate"):
            flows = rescaled(
                generate_workload(topo, self._scale.workload,
                                  seed=GENERATOR_SEED), self._factor)
        with rec.span("aggregation.plan"):
            specs = strategy.plan(flows, topo, None)
        sim = FlowSim(topo.network, label=strategy.name)
        with rec.span("netsim.simulator.add_flows"):
            sim.add_flows(specs)
        with rec.span("netsim.simulator.run"):
            result = sim.run()
        return specs, result

    # -- output checks (untimed) ------------------------------------------

    def check(self, unit: int, planned_and_result):
        specs, result = planned_and_result
        events = _events()
        ops, self._events_seen = events - self._events_seen, events
        complete = (
            set(result.records) == {spec.flow_id for spec in specs}
            and all(math.isfinite(fct) and fct > 0.0
                    for fct in result.fcts())
        )
        same = self.same_digest(unit, fct_crc(result))
        return ops, (0 if complete and same else ops), ()

    # -- per-layer probes (traced run only) -------------------------------

    def probes(self, run: TraceRun) -> Dict[str, float]:
        """Exact work counts and the solver-only replay, over one more
        pass of the inputs."""
        before = METRICS.snapshot("netsim.")
        replay = 0.0
        for unit in range(self.units):
            specs, result = self.run_unit(unit, NULL)
            capacities = dict(result.network.capacities())
            with run.rec.span("netsim.solver.replay"):
                replay += run.timer.run(
                    unit, lambda: _replay_solver(capacities, specs, result),
                    lambda consults: (consults, 0, ())).norm_wall
        after = METRICS.snapshot("netsim.")
        metrics = {name: after.get(name, 0) - before.get(name, 0)
                   for name in COUNTERS}
        metrics["netsim.solver.replay_ms"] = 1e3 * replay
        metrics["netsim.simulator.us_per_event"] = (
            1e3 * run.spans_ms["netsim.simulator.run_ms"]
            / metrics["netsim.events"])
        metrics["netsim.result_crc32"] = self.digest()
        return metrics


def _events() -> int:
    counter = METRICS.get("netsim.events")
    return counter.value if counter is not None else 0


def _replay_solver(capacities, specs, result: SimulationResult) -> int:
    """The solver alone: the run's admissions and drains, in time order,
    one ``rates`` consult per distinct timestamp."""
    solver = make_solver(capacities)
    consult = getattr(solver, "rates_array", solver.rates)
    timeline = []
    for spec in specs:
        if not spec.path:
            continue
        record = result.records[spec.flow_id]
        timeline.append((record.admitted_time, 1, spec))
        timeline.append((record.drain_time, 0, spec))
    timeline.sort(key=lambda event: (event[0], event[1]))
    consults = 0
    now = None
    for when, adding, spec in timeline:
        if now is not None and when != now:
            consult()
            consults += 1
        now = when
        if adding:
            solver.add_flow(spec.flow_id, spec.path, spec.rate_cap)
        else:
            solver.remove_flow(spec.flow_id)
    return consults


def sim_fct() -> SimWorkload:
    return SimWorkload(DEFAULT, FIG6, min_samples=24)


def sim_paper() -> SimWorkload:
    return SimWorkload(PAPER, NETAGG, min_samples=8)

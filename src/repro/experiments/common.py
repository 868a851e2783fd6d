"""Shared experiment infrastructure: scales, the simulation runner, and
the result container all figure modules use.

Scales trade runtime for fidelity:

- ``QUICK``   -- seconds; used by unit tests;
- ``BENCH``   -- sub-minute figures; the default for ``repro bench``;
- ``DEFAULT`` -- the tuned configuration behind EXPERIMENTS.md numbers;
- ``PAPER``   -- the paper's full 1,024-server topology (slow).

The workload constants follow DESIGN.md's documented assumptions; racks
are large (32 hosts) because the paper's incast degree (~40 servers per
rack) is what makes rack-level aggregation's inbound bottleneck visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.aggregation.base import AggregationStrategy
from repro.faults import FaultSchedule, SimFaultInjector
from repro.netsim.routing import EcmpRouter
from repro.netsim.simulator import FlowSim, SimulationResult
from repro.topology.base import Topology
from repro.topology.threetier import QUICK_TOPO, ThreeTierParams, three_tier
from repro.units import MB
from repro.workload.stragglers import StragglerModel, inject_stragglers
from repro.workload.synthetic import WorkloadParams, generate_workload


@dataclass(frozen=True)
class SimScale:
    """A (topology, workload) size preset."""

    name: str
    topo: ThreeTierParams
    workload: WorkloadParams

    def with_topo(self, **overrides) -> "SimScale":
        return replace(self, topo=self.topo.scaled(**overrides))

    def with_workload(self, **overrides) -> "SimScale":
        return replace(self, workload=replace(self.workload, **overrides))


_WORKLOAD_DEFAULTS = dict(
    mean_flow_size=1 * MB,
    pareto_shape=1.5,
    max_flow_size=10 * MB,
    aggregatable_fraction=0.4,
    worker_pareto_shape=1.0,
)

QUICK = SimScale(
    name="quick",
    topo=QUICK_TOPO,
    workload=WorkloadParams(n_flows=80, max_workers=24,
                            **_WORKLOAD_DEFAULTS),
)

BENCH = SimScale(
    name="bench",
    topo=ThreeTierParams(n_pods=4, tors_per_pod=1, aggrs_per_pod=2,
                         n_cores=4, hosts_per_tor=32),
    workload=WorkloadParams(n_flows=300, max_workers=64,
                            **_WORKLOAD_DEFAULTS),
)

DEFAULT = SimScale(
    name="default",
    topo=ThreeTierParams(n_pods=4, tors_per_pod=2, aggrs_per_pod=2,
                         n_cores=4, hosts_per_tor=32),
    workload=WorkloadParams(n_flows=600, max_workers=96,
                            **_WORKLOAD_DEFAULTS),
)

PAPER = SimScale(
    name="paper",
    topo=ThreeTierParams(),  # 1,024 servers, 64/16/8 switches
    workload=WorkloadParams(n_flows=2000, max_workers=128,
                            **_WORKLOAD_DEFAULTS),
)

#: The presets by name: the ``--scale`` vocabulary of every subcommand.
SCALES: Dict[str, SimScale] = {
    scale.name: scale for scale in (QUICK, BENCH, DEFAULT, PAPER)
}


def simulate(
    scale: SimScale,
    strategy: AggregationStrategy,
    deploy: Optional[Callable[[Topology], object]] = None,
    seed: int = 1,
    stragglers: Optional[StragglerModel] = None,
    router: Optional[EcmpRouter] = None,
    faults: Optional[FaultSchedule] = None,
) -> SimulationResult:
    """Build topology, deploy boxes, generate workload, run one strategy.

    Passing a :class:`repro.faults.FaultSchedule` wires the simulator
    fault injector in uniformly: the strategy plans against the
    injector's fault view (if it accepts one, e.g. ``NetAggStrategy``)
    and the schedule's capacity/reroute events are applied to the run.
    """
    topo = three_tier(scale.topo)
    if deploy is not None:
        deploy(topo)
    injector = None
    if faults is not None:
        injector = SimFaultInjector(topo, faults)
        # Fault-aware strategies expose a ``fault_view`` attribute read
        # at plan time; only fill it in when the caller left it unset.
        if hasattr(strategy, "fault_view") \
                and getattr(strategy, "fault_view") is None:
            strategy.fault_view = injector.fault_view
    workload = generate_workload(topo, scale.workload, seed=seed)
    if stragglers is not None:
        workload = inject_stragglers(workload, stragglers, seed=seed)
    sim = FlowSim(topo.network, label=getattr(strategy, "name", ""))
    sim.add_flows(strategy.plan(workload, topo, router))
    if injector is not None:
        injector.apply(sim, workload)
    return sim.run()


@dataclass
class ExperimentResult:
    """Rows of one regenerated figure/table."""

    experiment: str
    description: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""
    #: Flat observability snapshot (``repro.obs.METRICS.snapshot()``)
    #: captured by the runner; empty when the run was not instrumented.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Trace diagnosis (``repro.obs.analyze``): per-request critical
    #: paths and ranked link bottlenecks.  Attached by ``python -m
    #: repro analyze``; empty for plain runs.
    diagnosis: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns: {sorted(missing)}")
        self.rows.append(values)

    def to_text(self) -> str:
        """Render as an aligned text table (for example scripts)."""
        widths = {
            c: max(len(c), *(len(_fmt(row[c])) for row in self.rows))
            if self.rows else len(c)
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [f"== {self.experiment}: {self.description} ==", header,
                 "-" * len(header)]
        for row in self.rows:
            lines.append("  ".join(
                _fmt(row[c]).ljust(widths[c]) for c in self.columns
            ))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-ready)."""
        data = {
            "experiment": self.experiment,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": self.notes,
        }
        if self.metrics:
            data["metrics"] = dict(self.metrics)
        if self.diagnosis:
            data["diagnosis"] = dict(self.diagnosis)
        return data


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

"""Strategy interface and shared planning helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Tuple

from repro.netsim.routing import EcmpRouter
from repro.netsim.simulator import FlowSpec
from repro.topology.base import Topology
from repro.workload.synthetic import AggJob, BackgroundFlow, Workload


class AggregationStrategy(ABC):
    """Turns jobs into segment flows over a concrete topology."""

    #: Short name used in figures/benchmark rows.
    name: str = "abstract"

    @abstractmethod
    def plan_job(
        self, job: AggJob, topo: Topology, router: EcmpRouter
    ) -> List[FlowSpec]:
        """Flow specs (with dependencies) realising ``job``."""

    def plan(
        self,
        workload: Workload,
        topo: Topology,
        router: Optional[EcmpRouter] = None,
    ) -> List[FlowSpec]:
        """Plan every job plus the background traffic."""
        router = router or EcmpRouter()
        specs: List[FlowSpec] = []
        for job in workload.jobs:
            specs.extend(self.plan_job(job, topo, router))
        specs.extend(plan_background(workload.background, topo, router))
        return specs


def plan_background(
    flows: Iterable[BackgroundFlow], topo: Topology, router: EcmpRouter
) -> List[FlowSpec]:
    """Point-to-point ECMP flows for the non-aggregatable traffic."""
    specs = []
    for flow in flows:
        path = router.choose(topo.equal_cost_paths(flow.src, flow.dst),
                             flow.flow_id)
        specs.append(FlowSpec(
            flow_id=flow.flow_id,
            size=flow.size,
            path=path,
            start_time=flow.start_time,
            kind="background",
            aggregatable=False,
        ))
    return specs


def ecmp_path(
    topo: Topology, router: EcmpRouter, src: str, dst: str, key: str
) -> Tuple[str, ...]:
    """One ECMP-selected shortest path between two endpoints."""
    return router.choose(topo.equal_cost_paths(src, dst), key)


def worker_start_time(job: AggJob, worker_index: int) -> float:
    """Job start plus any straggler delay for this worker."""
    return job.start_time + job.delay_of(worker_index)

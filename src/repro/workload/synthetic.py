"""Synthetic workload generation (§4.1).

The generated workload is a mix of:

- **aggregation jobs** -- partition/aggregation requests with one master
  and a power-law number of workers ("80% of requests or jobs have fewer
  than 10 workers", after the Microsoft/Facebook production study the
  paper cites), placed locality-aware, each worker holding a Pareto-sized
  partial result;
- **background flows** -- the non-aggregatable remainder of the traffic
  (e.g. HDFS reads), point-to-point between uniformly random hosts.

The paper's OCR dropped several constants; the defaults here are the
documented assumptions from DESIGN.md: Pareto mean 100 KB / shape 1.05
(truncated), 40% of flows aggregatable, α = 10%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

from repro.topology.base import Topology
from repro.units import KB, MB
from repro.workload.placement import LocalityAwarePlacer, RandomPlacer


@dataclass(frozen=True)
class AggJob:
    """One partition/aggregation job (or online request).

    Attributes:
        job_id: unique id.
        master: host id of the master (frontend / reducer).
        workers: tuple of ``(host_id, partial_result_bytes)``.
        alpha: aggregation output ratio -- every aggregation point forwards
            ``alpha`` times the bytes it receives (see DESIGN.md).
        start_time: when the job's flows may start.
        worker_delays: per-worker extra start delay (straggler injection);
            empty means no delays.
        n_trees: number of disjoint aggregation trees to spread this job
            over (NetAgg strategies only; others ignore it).
    """

    job_id: str
    master: str
    workers: Tuple[Tuple[str, float], ...]
    alpha: float
    start_time: float = 0.0
    worker_delays: Tuple[float, ...] = ()
    n_trees: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.workers:
            raise ValueError(f"job {self.job_id!r} has no workers")
        if self.worker_delays and len(self.worker_delays) != len(self.workers):
            raise ValueError("worker_delays length must match workers")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        hosts = [h for h, _ in self.workers]
        if len(set(hosts)) != len(hosts):
            raise ValueError(f"job {self.job_id!r} reuses a worker host")

    def delay_of(self, worker_index: int) -> float:
        if not self.worker_delays:
            return 0.0
        return self.worker_delays[worker_index]

    @property
    def total_bytes(self) -> float:
        return sum(size for _, size in self.workers)

    def with_delays(self, delays: Sequence[float]) -> "AggJob":
        return replace(self, worker_delays=tuple(delays))


@dataclass(frozen=True)
class BackgroundFlow:
    """A non-aggregatable point-to-point flow."""

    flow_id: str
    src: str
    dst: str
    size: float
    start_time: float = 0.0


@dataclass
class Workload:
    """Jobs plus background flows."""

    jobs: List[AggJob] = field(default_factory=list)
    background: List[BackgroundFlow] = field(default_factory=list)

    @property
    def aggregatable_bytes(self) -> float:
        return sum(job.total_bytes for job in self.jobs)

    @property
    def background_bytes(self) -> float:
        return sum(flow.size for flow in self.background)


#: Masters (frontends/reducers) live outside their workers' rack.
REMOTE_MASTER = True
#: Probability a worker is displaced to a random rack by bin-packing
#: pressure (fragmented clusters are where rack-level aggregation
#: degenerates and on-path aggregation shines).
FRAGMENTATION = 0.25


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the synthetic generator (defaults = DESIGN.md assumptions)."""

    n_flows: int = 400
    aggregatable_fraction: float = 0.4
    alpha: float = 0.10
    mean_flow_size: float = 100 * KB
    pareto_shape: float = 1.05
    max_flow_size: float = 100 * MB
    min_workers: int = 2
    max_workers: int = 64
    worker_pareto_shape: float = 1.5
    n_trees: int = 1
    random_placement: bool = False
    #: How jobs/flows arrive over time:
    #: - "simultaneous": everything at t=0 (the paper's worst case);
    #: - "uniform": starts drawn uniformly over ``arrival_span``;
    #: - "poisson": a Poisson process with mean inter-arrival
    #:   ``arrival_span / n_items`` (the paper's "dynamic workloads with
    #:   various arrival patterns").
    arrival_process: str = "simultaneous"
    arrival_span: float = 0.0  # horizon for uniform/poisson arrivals

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        if not 0.0 <= self.aggregatable_fraction <= 1.0:
            raise ValueError("aggregatable_fraction must be in [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.min_workers < 1 or self.max_workers < self.min_workers:
            raise ValueError("worker count bounds are inconsistent")
        if self.arrival_process not in ("simultaneous", "uniform",
                                        "poisson"):
            raise ValueError(
                f"unknown arrival_process {self.arrival_process!r}"
            )
        if self.arrival_span < 0.0:
            raise ValueError("arrival_span must be >= 0")
        if self.arrival_process != "simultaneous" and \
                self.arrival_span <= 0.0:
            raise ValueError(
                f"{self.arrival_process} arrivals need arrival_span > 0"
            )



def _arrival_times(rng: random.Random, params: "WorkloadParams",
                   n_items: int) -> List[float]:
    """Start times for ``n_items`` per the configured arrival process."""
    if params.arrival_process == "simultaneous" or n_items == 0:
        return [0.0] * n_items
    if params.arrival_process == "uniform":
        return sorted(rng.uniform(0.0, params.arrival_span)
                      for _ in range(n_items))
    # Poisson process over the span: exponential inter-arrivals with the
    # mean chosen so the expected last arrival lands near the horizon.
    mean_gap = params.arrival_span / n_items
    now = 0.0
    times = []
    for _ in range(n_items):
        now += rng.expovariate(1.0 / mean_gap)
        times.append(now)
    return times


def pareto_size(rng: random.Random, mean: float, shape: float,
                maximum: float) -> float:
    """One truncated Pareto sample with the requested mean.

    For shape a > 1 the Pareto mean is ``a * xm / (a - 1)``; we derive the
    scale ``xm`` from the requested mean and truncate the tail.
    """
    if shape <= 1.0:
        raise ValueError("pareto shape must exceed 1 for a finite mean")
    xm = mean * (shape - 1.0) / shape
    sample = xm / (rng.random() ** (1.0 / shape))
    return min(sample, maximum)


def worker_count(rng: random.Random, params: WorkloadParams) -> int:
    """Power-law worker count: ~80% of jobs below ten workers."""
    sample = params.min_workers / (
        rng.random() ** (1.0 / params.worker_pareto_shape)
    )
    return max(params.min_workers, min(params.max_workers, int(sample)))


def generate_workload(
    topo: Topology,
    params: WorkloadParams = WorkloadParams(),
    seed: int = 1,
) -> Workload:
    """Generate a deterministic workload for ``topo``.

    ``params.n_flows`` counts *worker flows plus background flows*: the
    aggregatable fraction is honoured in flow count, matching the paper's
    "only 40% of flows are aggregatable" mix.
    """
    rng = random.Random(seed)
    placer = (
        RandomPlacer(topo, rng) if params.random_placement
        else LocalityAwarePlacer(topo, rng, remote_master=REMOTE_MASTER,
                                 fragmentation=FRAGMENTATION)
    )
    hosts = sorted(topo.hosts())
    workload = Workload()

    target_agg_flows = round(params.n_flows * params.aggregatable_fraction)
    # Pre-draw generous arrival schedules (jobs can't exceed the flow
    # budget, so target_agg_flows bounds the job count).
    job_arrivals = _arrival_times(rng, params, max(target_agg_flows, 1))
    background_arrivals = _arrival_times(
        rng, params, max(params.n_flows - target_agg_flows, 0) or 1
    )
    agg_flows = 0
    job_idx = 0
    while agg_flows < target_agg_flows:
        n_workers = worker_count(rng, params)
        n_workers = min(n_workers, max(1, target_agg_flows - agg_flows))
        n_workers = min(n_workers, len(hosts) - 1)
        placed = placer.place_job(n_workers, with_master=True)
        master, worker_hosts = placed[0], placed[1:]
        workers = tuple(
            (host, pareto_size(rng, params.mean_flow_size,
                               params.pareto_shape, params.max_flow_size))
            for host in worker_hosts
        )
        start = job_arrivals[job_idx % len(job_arrivals)]
        workload.jobs.append(AggJob(
            job_id=f"job:{job_idx}",
            master=master,
            workers=workers,
            alpha=params.alpha,
            start_time=start,
            n_trees=params.n_trees,
        ))
        agg_flows += n_workers
        job_idx += 1

    n_background = params.n_flows - agg_flows
    for i in range(max(0, n_background)):
        src, dst = rng.sample(hosts, 2)
        start = background_arrivals[i % len(background_arrivals)]
        workload.background.append(BackgroundFlow(
            flow_id=f"bg:{i}",
            src=src,
            dst=dst,
            size=pareto_size(rng, params.mean_flow_size,
                             params.pareto_shape, params.max_flow_size),
            start_time=start,
        ))
    return workload

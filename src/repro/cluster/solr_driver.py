"""Closed-loop search workload on the emulated testbed (Figs. 16-21).

Each client runs a closed loop: issue a query, wait for the response,
repeat.  A query scatters to every backend; each backend spends CPU time
producing a partial result of ``result_bytes`` and ships it either
straight to the frontend (plain Solr) or into its rack's agg box
(NetAgg), which merges all partials and forwards ``alpha``-scaled data.

Measured outputs mirror the paper's: *network throughput* is the rate of
partial-result bytes the backends inject (what the agg box / frontend
must absorb), and response latency is the client-observed request time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List

from repro.cluster.deployment import TestbedConfig
from repro.cluster.emulator import (
    Barrier,
    Resource,
    TransferChain,
    publish_run,
)
from repro.netsim.engine import EventQueue
from repro.units import KB, percentile, to_gbps

@dataclass(frozen=True)
class SolrEmulationParams:
    """One experiment configuration.

    Attributes:
        n_clients: closed-loop clients across all racks.
        result_bytes: partial-result size per backend per query (the
            paper: "results are of the order of hundreds of kilobytes").
        backend_cpu_seconds: per-query search time on one backend core.
        use_netagg: route partial results through the agg box(es).
        alpha: aggregation output ratio of the deployed function.
        agg_cpu_factor: CPU multiplier of the aggregation function
            (1.0 = sample-like, >> 1 = categorise-like).
        frontend_cpu_seconds: master-side merge cost per response.
        duration: emulated seconds.
        seed: jitter seed.
    """

    n_clients: int = 30
    result_bytes: float = 200 * KB
    backend_cpu_seconds: float = 0.012
    use_netagg: bool = False
    alpha: float = 0.05
    agg_cpu_factor: float = 0.25
    frontend_cpu_seconds: float = 0.001
    duration: float = 20.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.result_bytes <= 0 or self.duration <= 0:
            raise ValueError("sizes and duration must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


@dataclass
class SolrRunResult:
    """Measured outcome of one emulated run."""

    requests_completed: int
    duration: float
    injected_bytes: float
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput_bytes(self) -> float:
        return self.injected_bytes / self.duration

    @property
    def throughput_gbps(self) -> float:
        return to_gbps(self.throughput_bytes)

    @property
    def p99_latency(self) -> float:
        return percentile(self.latencies, 99.0)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies)


class SolrEmulation:
    """Build and run the closed-loop search emulation."""

    def __init__(self, config: TestbedConfig = TestbedConfig(),
                 params: SolrEmulationParams = SolrEmulationParams()) -> None:
        self._config = config
        self._params = params

    def run(self) -> SolrRunResult:
        config, params = self._config, self._params
        queue = EventQueue()
        rng = random.Random(params.seed)

        # -- resources ---------------------------------------------------------
        frontend_in = Resource(queue, "frontend-in", config.edge_rate)
        frontend_cpu = Resource(queue, "frontend-cpu", 1.0,
                                servers=config.master_cores)
        backend_nics = [
            Resource(queue, f"backend-out:{i}", config.edge_rate)
            for i in range(config.n_backends)
        ]
        backend_cpus = [
            Resource(queue, f"backend-cpu:{i}", 1.0,
                     servers=config.backend_cores)
            for i in range(config.n_backends)
        ]
        n_boxes = config.racks * config.boxes_per_rack
        box_in = [
            Resource(queue, f"box-in:{b}", config.box_link_rate)
            for b in range(n_boxes)
        ]
        box_cpu = [
            Resource(queue, f"box-cpu:{b}", 1.0, servers=config.box_cores)
            for b in range(n_boxes)
        ]
        box_out = [
            Resource(queue, f"box-out:{b}", config.box_link_rate)
            for b in range(n_boxes)
        ]

        stats = SolrRunResult(requests_completed=0,
                              duration=params.duration,
                              injected_bytes=0.0)
        result_bytes = params.result_bytes
        jittered, cpu_seconds = self._jittered, params.backend_cpu_seconds

        def ship(stages, arrive: Callable[[], None]) -> None:
            """A backend's search is done: its partial goes on the wire."""
            stats.injected_bytes += result_bytes
            TransferChain(stages).start(arrive)

        def fan_out(members, barrier: Barrier) -> None:
            for cpu, stages in members:
                cpu.request(jittered(rng, cpu_seconds),
                            partial(ship, stages, barrier.arm()))

        # Stage tables are built per run, not per query: every amount is
        # fixed.  A member is (backend CPU, stages its partial then takes).
        to_frontend = [
            (backend_cpus[i], ((backend_nics[i], result_bytes),
                               (frontend_in, result_bytes)))
            for i in range(config.n_backends)
        ]
        # Scale-out hashes requests over a rack's boxes; one plan per
        # hash value, each a list of (box stages, members) per box used.
        plans = []
        for offset in range(config.boxes_per_rack):
            groups: Dict[int, List[int]] = {}
            for i in range(config.n_backends):
                rack = i // config.backends_per_rack
                groups.setdefault(rack * config.boxes_per_rack + offset,
                                  []).append(i)
            plan = []
            for box, backends in groups.items():
                aggregate_in = result_bytes * len(backends)
                out_bytes = params.alpha * aggregate_in
                merge_cpu = (params.agg_cpu_factor * aggregate_in
                             / config.core_rate)
                plan.append((
                    ((box_cpu[box], merge_cpu), (box_out[box], out_bytes),
                     (frontend_in, out_bytes)),
                    [(backend_cpus[i], ((backend_nics[i], result_bytes),
                                        (box_in[box], result_bytes)))
                     for i in backends],
                ))
            plans.append(plan)

        def issue(client_id: int, seq: int) -> None:
            if queue.now >= params.duration:
                return
            started = queue.now

            def finish() -> None:
                stats.requests_completed += 1
                stats.latencies.append(queue.now - started)
                issue(client_id, seq + 1)

            respond = partial(frontend_cpu.request,
                              params.frontend_cpu_seconds, finish)
            if not params.use_netagg:
                fan_out(to_frontend, Barrier(config.n_backends, respond))
                return
            plan = plans[(client_id * 1_000_003 + seq)
                         % config.boxes_per_rack]
            fan_in = Barrier(len(plan), respond)
            for box_stages, members in plan:
                box_phase = TransferChain(box_stages)
                fan_out(members, Barrier(
                    len(members), partial(box_phase.start, fan_in.arm())))

        for client in range(params.n_clients):
            # Stagger client starts a hair so ties don't synchronise.
            queue.schedule(client * 1e-4, partial(issue, client, 0))
        events = queue.run(until=params.duration)
        publish_run("queries", stats.requests_completed,
                    [frontend_in, frontend_cpu, *backend_nics, *backend_cpus,
                     *box_in, *box_cpu, *box_out], events)

        if not stats.latencies:
            raise RuntimeError(
                "no request completed; duration too short for the load"
            )
        return stats

    @staticmethod
    def _jittered(rng: random.Random, value: float) -> float:
        return value * (0.9 + 0.2 * rng.random())

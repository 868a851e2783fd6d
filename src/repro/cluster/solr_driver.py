"""Closed-loop search workload on the emulated testbed (Figs. 16-21).

Each client runs a closed loop: issue a query, wait for the response,
repeat.  A query scatters to every backend; each backend spends CPU time
producing a partial result of :data:`RESULT_BYTES` and ships it either
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
from itertools import chain
from typing import Callable, List

from repro.aggbox.functions import DEFAULT_CORE_RATE
from repro.cluster.deployment import (
    BACKEND_CORES,
    BOX_LINK_RATE,
    EDGE_RATE,
    MASTER_CORES,
    TestbedConfig,
)
from repro.cluster.emulator import Barrier, Resource, TransferChain, publish_run
from repro.netsim.engine import EventQueue
from repro.units import KB, percentile, to_gbps

#: Partial-result size per backend per query: the paper's "results are
#: of the order of hundreds of kilobytes".
RESULT_BYTES = 200 * KB
#: Search time per query on one backend core, before the +/-10 % jitter.
BACKEND_CPU_SECONDS = 0.012
#: The frontend's merge cost per response (one master core).
FRONTEND_CPU_SECONDS = 0.001


@dataclass(frozen=True)
class SolrEmulationParams:
    """One experiment configuration.

    Attributes:
        n_clients: closed-loop clients across all racks.
        use_netagg: route partial results through the agg box(es).
        alpha: aggregation output ratio of the deployed function.
        agg_cpu_factor: CPU multiplier of the aggregation function
            (1.0 = sample-like, >> 1 = categorise-like).
        duration: emulated seconds.
        seed: jitter seed.
    """

    n_clients: int = 30
    use_netagg: bool = False
    alpha: float = 0.05
    agg_cpu_factor: float = 0.25
    duration: float = 20.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
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


class SolrEmulation:
    """Build and run the closed-loop search emulation."""

    def __init__(self, config: TestbedConfig = TestbedConfig(),
                 params: SolrEmulationParams = SolrEmulationParams()) -> None:
        self._config = config
        self._params = params

    def run(self) -> SolrRunResult:
        params = self._params
        run = _SolrRun(self._config, params)
        for client in range(params.n_clients):
            # Stagger client starts a hair so ties don't synchronise.
            run.queue.schedule(client * 1e-4, partial(run.issue, client, 0))
        return run.finish(run.queue.run(until=params.duration))


class _SolrRun:
    """The state of one :meth:`SolrEmulation.run` and the steps of a query.

    A query follows a *plan*: per box it uses, the box's stages (merge
    CPU, uplink, frontend link) and its members, the backends feeding
    it.  NetAgg has one plan per box offset (scale-out hashes queries
    over a rack's boxes); plain Solr is one plan of one group with the
    empty box stage.  Plans are built per run: every amount is fixed.
    """

    def __init__(self, config: TestbedConfig,
                 params: SolrEmulationParams) -> None:
        self.queue = queue = EventQueue()
        self.rng = random.Random(params.seed)
        self.duration = params.duration
        self.stats = SolrRunResult(requests_completed=0,
                                   duration=params.duration,
                                   injected_bytes=0.0)
        self.frontend_in = Resource(queue, "frontend-in", EDGE_RATE)
        self.frontend_cpu = Resource(queue, "frontend-cpu", 1.0,
                                     servers=MASTER_CORES)
        self.backends = [
            (Resource(queue, f"backend-cpu:{i}", 1.0, servers=BACKEND_CORES),
             Resource(queue, f"backend-out:{i}", EDGE_RATE))
            for i in range(config.n_backends)]
        self.resources = [self.frontend_in, self.frontend_cpu,
                          *chain.from_iterable(self.backends)]
        self.plans = (self._netagg_plans(config, params) if params.use_netagg
                      else [[((), _members(self.backends, self.frontend_in))]])

    def _netagg_plans(self, config: TestbedConfig,
                      params: SolrEmulationParams) -> list:
        """Plan ``offset``: each rack's backends feed the rack's box at
        that offset, which merges them and forwards ``alpha`` of it."""
        per_rack, queue = config.backends_per_rack, self.queue
        aggregate_in = RESULT_BYTES * per_rack
        out_bytes = params.alpha * aggregate_in
        merge_cpu = params.agg_cpu_factor * aggregate_in / DEFAULT_CORE_RATE
        plans: List[list] = [[] for _ in range(config.boxes_per_rack)]
        for box in range(config.racks * config.boxes_per_rack):
            rack, offset = divmod(box, config.boxes_per_rack)
            box_in = Resource(queue, f"box-in:{box}", BOX_LINK_RATE)
            box_cpu = Resource(queue, f"box-cpu:{box}", 1.0,
                               servers=config.box_cores)
            box_out = Resource(queue, f"box-out:{box}", BOX_LINK_RATE)
            self.resources += (box_in, box_cpu, box_out)
            plans[offset].append((
                ((box_cpu, merge_cpu), (box_out, out_bytes),
                 (self.frontend_in, out_bytes)),
                _members(self.backends[rack * per_rack:(rack + 1) * per_rack],
                         box_in)))
        return plans

    def issue(self, client_id: int, seq: int) -> None:
        """Client ``client_id`` sends query ``seq``, unless time is up."""
        queue = self.queue
        if queue.now >= self.duration:
            return
        respond = partial(self.frontend_cpu.request, FRONTEND_CPU_SECONDS,
                          partial(self.complete, client_id, seq, queue.now))
        plans = self.plans
        plan = plans[(client_id * 1_000_003 + seq) % len(plans)]
        fan_in = Barrier(len(plan), respond)
        for box_stages, members in plan:
            box_phase = TransferChain(box_stages)
            self.fan_out(members, Barrier(
                len(members), partial(box_phase.start, fan_in.arm())))

    def fan_out(self, members: list, barrier: Barrier) -> None:
        """Every member searches for a jittered time, then ships."""
        rng, ship, arm = self.rng, self.ship, barrier.arm
        for cpu, stages in members:
            cpu.request(BACKEND_CPU_SECONDS * (0.9 + 0.2 * rng.random()),
                        partial(ship, stages, arm()))

    def ship(self, stages, arrive: Callable[[], None]) -> None:
        """A backend's search is done: its partial goes on the wire."""
        self.stats.injected_bytes += RESULT_BYTES
        TransferChain(stages).start(arrive)

    def complete(self, client_id: int, seq: int, started: float) -> None:
        """The frontend has answered: record it, send the next query."""
        stats = self.stats
        stats.requests_completed += 1
        stats.latencies.append(self.queue.now - started)
        self.issue(client_id, seq + 1)

    def finish(self, events: int) -> SolrRunResult:
        """Publish the run's counters and return its result."""
        stats = self.stats
        publish_run("queries", stats.requests_completed, self.resources,
                    events)
        if not stats.latencies:
            raise RuntimeError(
                "no request completed; duration too short for the load"
            )
        return stats


def _members(backends: list, link: Resource) -> list:
    """(CPU, NIC) backends as members whose partials cross ``link``."""
    return [(cpu, ((nic, RESULT_BYTES), (link, RESULT_BYTES)))
            for cpu, nic in backends]

"""Batch-job execution on the emulated testbed (Figs. 22-24).

One map/reduce job: ten mappers in one rack, one reducer, one
aggregation tree (the paper's Hadoop deployment).  The map phase is
excluded, as in the paper ("we ignore the map phase because it is not
affected by NetAgg"); we emulate shuffle + reduce:

- **plain Hadoop**: every mapper ships its share of the intermediate
  data to the reducer, whose 1 Gbps inbound link is the bottleneck; the
  reducer then spends CPU on the full volume and spills output to disk.
- **NetAgg**: mappers ship into the rack's agg box over its 10 Gbps
  link; the box combines (CPU, pipelined with arrival) and forwards the
  alpha-scaled aggregate; the reducer -- unaware the data is final --
  still re-reads and reduces what it receives (the paper's conscious
  transparency trade-off), then spills.

Job parameters (output ratio, CPU factor) come from *measured* runs of
the real mini-Hadoop engine: :func:`measure_job_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Sequence, Tuple

from repro.apps.hadoop.engine import MapReduceEngine
from repro.apps.hadoop.job import JobSpec
from repro.aggbox.functions import DEFAULT_CORE_RATE
from repro.cluster.deployment import (
    BACKEND_CORES,
    BOX_LINK_RATE,
    DISK_RATE,
    EDGE_RATE,
    TestbedConfig,
)
from repro.cluster.emulator import Barrier, Resource, TransferChain, publish_run
from repro.netsim.engine import EventQueue
from repro.units import GB, to_gbps


@dataclass(frozen=True)
class JobProfile:
    """What the emulator needs to know about a job."""

    name: str
    output_ratio: float  # alpha, measured
    cpu_factor: float  # reduce-side CPU multiplier
    aggregatable: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.output_ratio <= 1.0:
            raise ValueError("output_ratio must be in (0, 1]")
        if self.cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")


def measure_job_profile(job: JobSpec,
                        splits: Sequence[Sequence[object]],
                        use_combiner: bool = True) -> JobProfile:
    """Run the real engine on sample data and extract the profile."""
    _, stats = MapReduceEngine().run(job, splits, use_combiner=use_combiner)
    return JobProfile(
        name=job.name,
        output_ratio=max(min(stats.output_ratio, 1.0), 1e-6),
        cpu_factor=job.cpu_factor,
        aggregatable=job.aggregatable,
    )


@dataclass
class HadoopRunResult:
    """Timing of one emulated shuffle+reduce execution."""

    job: str
    use_netagg: bool
    shuffle_reduce_seconds: float
    agg_seconds: float  # time spent at the agg box (AGG in Fig. 22)
    box_processing_gbps: float
    intermediate_bytes: float


class HadoopEmulation:
    """Emulate shuffle + reduce of one job on the testbed."""

    def __init__(self, config: TestbedConfig = TestbedConfig()) -> None:
        for name in ("racks", "boxes_per_rack"):
            if getattr(config, name) != 1:
                raise ValueError(f"{name} must be 1: one rack, one box")
        self._config = config

    #: Fixed shuffle+reduce overhead (task scheduling, JVM startup,
    #: sort-merge setup) -- the paper's speed-up grows with data size
    #: because this constant matters less as transfers dominate.
    FIXED_OVERHEAD_SECONDS = 5.0

    def run(self, profile: JobProfile, intermediate_bytes: float = 2 * GB,
            use_netagg: bool = False, n_reducers: int = 1) -> HadoopRunResult:
        """Shuffle and reduce ``intermediate_bytes`` from one rack's
        mappers (one per backend) to ``n_reducers`` reducers."""
        if intermediate_bytes <= 0:
            raise ValueError("intermediate_bytes must be positive")
        if n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        if use_netagg and not profile.aggregatable:
            raise ValueError(
                f"job {profile.name!r} has no combiner; NetAgg cannot help"
            )
        run = _HadoopRun(self._config, profile, intermediate_bytes,
                         use_netagg, n_reducers)
        (run.shuffle_through_box if use_netagg else run.shuffle_direct)()
        return run.finish(run.queue.run(), self.FIXED_OVERHEAD_SECONDS)


class _HadoopRun:
    """The state of one :meth:`HadoopEmulation.run` and its phases.
    Both shuffles end in :meth:`reduce` on every reducer."""

    def __init__(self, config: TestbedConfig, profile: JobProfile,
                 intermediate_bytes: float, use_netagg: bool,
                 n_reducers: int) -> None:
        self.queue = queue = EventQueue()
        self.profile, self.use_netagg = profile, use_netagg
        self.intermediate_bytes = intermediate_bytes
        self.n_mappers = n_mappers = config.backends_per_rack
        self.per_mapper = intermediate_bytes / n_mappers
        self.output_per_reducer = (profile.output_ratio * intermediate_bytes
                                   / n_reducers)
        self.mapper_nics = [Resource(queue, f"mapper-out:{i}", EDGE_RATE)
                            for i in range(n_mappers)]
        #: (inbound link, CPU pool, spill disk) per reducer.
        self.reducers = [
            (Resource(queue, f"reducer-in:{r}", EDGE_RATE),
             Resource(queue, f"reducer-cpu:{r}", 1.0, servers=BACKEND_CORES),
             Resource(queue, f"reducer-disk:{r}", DISK_RATE))
            for r in range(n_reducers)]
        self.box_in = Resource(queue, "box-in", BOX_LINK_RATE)
        self.box_cpu = Resource(queue, "box-cpu", 1.0,
                                servers=config.box_cores)
        self.box_out = Resource(queue, "box-out", BOX_LINK_RATE)
        self.done_at = 0.0       # the last spill's end
        self.box_done_at = 0.0   # the box phase's end (stays 0.0 if plain)

    def shuffle_direct(self) -> None:
        """Plain Hadoop: each mapper ships a 1/R slice of its output to
        each reducer, whose inbound link is the bottleneck."""
        n_reducers = len(self.reducers)
        slice_bytes = self.per_mapper / n_reducers
        per_reducer_share = self.intermediate_bytes / n_reducers
        for reducer in self.reducers:
            shuffle_done = Barrier(self.n_mappers, partial(
                self.reduce, reducer, per_reducer_share))
            for nic in self.mapper_nics:
                TransferChain(((nic, slice_bytes), (reducer[0], slice_bytes))
                              ).start(shuffle_done.arm())

    def shuffle_through_box(self) -> None:
        """NetAgg: mappers stream chunks into the box; combining is
        pipelined with arrival, so box time ~ max(transfer, cpu) rather
        than their sum."""
        n_chunks = 64
        chunk = self.per_mapper / n_chunks
        merge_cpu_total = (self.profile.cpu_factor * self.intermediate_bytes
                           / DEFAULT_CORE_RATE)
        merge_cpu_chunk = merge_cpu_total / (self.n_mappers * n_chunks)
        collect = Barrier(self.n_mappers * n_chunks, self.forward)
        for nic in self.mapper_nics:
            self.send_chunk(((nic, chunk), (self.box_in, chunk),
                             (self.box_cpu, merge_cpu_chunk)),
                            collect, n_chunks)

    def send_chunk(self, stages: Sequence[Tuple[Resource, float]],
                   collect: Barrier, remaining: int) -> None:
        """Send one chunk now and the next one a zero-delay event later."""
        if remaining == 0:
            return
        TransferChain(stages).start(collect.arm())
        self.queue.schedule(0.0, partial(self.send_chunk, stages, collect,
                                         remaining - 1))

    def forward(self) -> None:
        """Every chunk is combined: send each reducer its share."""
        self.box_done_at = self.queue.now
        per_out = self.output_per_reducer
        for reducer in self.reducers:
            TransferChain(((self.box_out, per_out), (reducer[0], per_out))
                          ).start(partial(self.reduce, reducer, per_out))

    def reduce(self, reducer: Tuple[Resource, Resource, Resource],
               received_bytes: float) -> None:
        """Reduce ``received_bytes`` -- parallelised over the reducer's
        cores, as in Hadoop's merge phase -- then spill."""
        _, cpu, disk = reducer
        per_core = (self.profile.cpu_factor * received_bytes
                    / DEFAULT_CORE_RATE / BACKEND_CORES)
        barrier = Barrier(BACKEND_CORES, partial(
            disk.request, self.output_per_reducer, self.record_done))
        for _ in range(BACKEND_CORES):
            cpu.request(per_core, barrier.arm())

    def record_done(self) -> None:
        self.done_at = max(self.done_at, self.queue.now)

    def finish(self, events: int, overhead: float) -> HadoopRunResult:
        """Publish the run's counters and return its timing."""
        publish_run("shuffles", 1, [
            *self.mapper_nics, *chain.from_iterable(self.reducers),
            self.box_in, self.box_cpu, self.box_out], events)
        agg_seconds = self.box_done_at
        return HadoopRunResult(
            job=self.profile.name,
            use_netagg=self.use_netagg,
            shuffle_reduce_seconds=self.done_at + overhead,
            agg_seconds=agg_seconds,
            box_processing_gbps=to_gbps(
                self.intermediate_bytes / agg_seconds if agg_seconds > 0
                else 0.0),
            intermediate_bytes=self.intermediate_bytes,
        )

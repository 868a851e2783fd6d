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
from typing import Optional, Sequence

from repro.apps.hadoop.engine import MapReduceEngine
from repro.apps.hadoop.job import JobSpec
from repro.cluster.deployment import TestbedConfig
from repro.cluster.emulator import (
    Barrier,
    Resource,
    TransferChain,
    publish_run,
)
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
        self._config = config

    #: Fixed shuffle+reduce overhead (task scheduling, JVM startup,
    #: sort-merge setup) -- the paper's speed-up grows with data size
    #: because this constant matters less as transfers dominate.
    FIXED_OVERHEAD_SECONDS = 5.0

    def run(self, profile: JobProfile, intermediate_bytes: float = 2 * GB,
            use_netagg: bool = False, n_mappers: Optional[int] = None,
            fixed_overhead: Optional[float] = None,
            n_reducers: int = 1) -> HadoopRunResult:
        if intermediate_bytes <= 0:
            raise ValueError("intermediate_bytes must be positive")
        overhead = (self.FIXED_OVERHEAD_SECONDS if fixed_overhead is None
                    else fixed_overhead)
        if overhead < 0:
            raise ValueError("fixed_overhead must be >= 0")
        if n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        if use_netagg and not profile.aggregatable:
            raise ValueError(
                f"job {profile.name!r} has no combiner; NetAgg cannot help"
            )
        config = self._config
        n_mappers = n_mappers or config.backends_per_rack
        per_mapper = intermediate_bytes / n_mappers

        queue = EventQueue()
        mapper_nics = [
            Resource(queue, f"mapper-out:{i}", config.edge_rate)
            for i in range(n_mappers)
        ]
        reducer_in = [
            Resource(queue, f"reducer-in:{r}", config.edge_rate)
            for r in range(n_reducers)
        ]
        reducer_cpu = [
            Resource(queue, f"reducer-cpu:{r}", 1.0,
                     servers=config.backend_cores)
            for r in range(n_reducers)
        ]
        disks = [
            Resource(queue, f"reducer-disk:{r}", config.disk_rate)
            for r in range(n_reducers)
        ]
        box_in = Resource(queue, "box-in", config.box_link_rate)
        box_cpu = Resource(queue, "box-cpu", 1.0, servers=config.box_cores)
        box_out = Resource(queue, "box-out", config.box_link_rate)
        resources = [*mapper_nics, *reducer_in, *reducer_cpu, *disks,
                     box_in, box_cpu, box_out]

        done_at = [0.0]
        box_busy = [0.0, 0.0]  # [start of box phase, end of box phase]

        def record_done() -> None:
            done_at[0] = max(done_at[0], queue.now)

        all_reduced = Barrier(n_reducers, lambda: None)
        output_per_reducer = (profile.output_ratio * intermediate_bytes
                              / n_reducers)

        def reduce_phase(reducer: int, received_bytes: float) -> None:
            cpu_work = profile.cpu_factor * received_bytes / config.core_rate
            # The reduce is parallelised over the reducer's cores in
            # Hadoop's merge phase; model as core-count-wide work.
            per_core = cpu_work / config.backend_cores
            barrier = Barrier(
                config.backend_cores,
                lambda: disks[reducer].request(output_per_reducer,
                                               record_done),
            )
            for _ in range(config.backend_cores):
                reducer_cpu[reducer].request(per_core, barrier.arm())

        per_reducer_share = intermediate_bytes / n_reducers

        if not use_netagg:
            # Each mapper ships a 1/R slice of its output to each reducer.
            slice_bytes = per_mapper / n_reducers
            for reducer in range(n_reducers):
                shuffle_done = Barrier(
                    n_mappers, partial(reduce_phase, reducer,
                                       per_reducer_share))
                for i in range(n_mappers):
                    TransferChain((
                        (mapper_nics[i], slice_bytes),
                        (reducer_in[reducer], slice_bytes),
                    )).start(shuffle_done.arm())
            events = queue.run()
            publish_run("shuffles", 1, resources, events)
            return HadoopRunResult(
                job=profile.name,
                use_netagg=False,
                shuffle_reduce_seconds=done_at[0] + overhead,
                agg_seconds=0.0,
                box_processing_gbps=0.0,
                intermediate_bytes=intermediate_bytes,
            )

        # -- NetAgg path ------------------------------------------------------
        # Mappers stream chunks into the box; combining is pipelined with
        # arrival, so box time ~ max(transfer, cpu) rather than their sum.
        n_chunks = 64
        chunk = per_mapper / n_chunks
        combined_bytes = profile.output_ratio * intermediate_bytes
        merge_cpu_total = (profile.cpu_factor * intermediate_bytes
                           / config.core_rate)
        merge_cpu_chunk = merge_cpu_total / (n_mappers * n_chunks)

        def after_box() -> None:
            box_busy[1] = queue.now
            per_out = combined_bytes / n_reducers
            for reducer in range(n_reducers):
                TransferChain((
                    (box_out, per_out), (reducer_in[reducer], per_out),
                )).start(partial(reduce_phase, reducer, per_out))

        collect = Barrier(n_mappers * n_chunks, after_box)

        def send_chunk(stages, remaining: int) -> None:
            if remaining == 0:
                return
            TransferChain(stages).start(collect.arm())
            queue.schedule(0.0, partial(send_chunk, stages, remaining - 1))

        for nic in mapper_nics:
            send_chunk(((nic, chunk), (box_in, chunk),
                        (box_cpu, merge_cpu_chunk)), n_chunks)
        events = queue.run()
        publish_run("shuffles", 1, resources, events)
        agg_seconds = box_busy[1]
        total = done_at[0]
        return HadoopRunResult(
            job=profile.name,
            use_netagg=True,
            shuffle_reduce_seconds=total + overhead,
            agg_seconds=agg_seconds,
            box_processing_gbps=to_gbps(
                intermediate_bytes / agg_seconds if agg_seconds > 0 else 0.0
            ),
            intermediate_bytes=intermediate_bytes,
        )

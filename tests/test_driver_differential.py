"""Differential oracle for the testbed emulator's two drivers.

``_FrozenSolrEmulation.run`` and ``_FrozenHadoopEmulation.run`` are
verbatim copies of ``SolrEmulation.run`` and ``HadoopEmulation.run`` as
they stood while each was one method of nested closures with a plain
arm and a NetAgg arm side by side.  They read the testbed's fixed
values off ``_TestbedShape`` and ``_SolrShape``: the configuration and
parameter classes with every field they had then, at the defaults
they had then.  The resources, chains and barriers are the live ones
from ``repro.cluster.emulator``, so the only code that differs between
the two is the driver.

Hypothesis draws the testbed shape (racks, backends and boxes per
rack, box cores), the Solr parameters (clients, NetAgg or plain,
alpha, the aggregation CPU factor, a short duration and the seed) and
the Hadoop job (output ratio, CPU factor, intermediate bytes, NetAgg
or plain, reducers).  Frozen and live must agree with ``==``: every
result field, the whole ``latencies`` list, the ``cluster.*`` counter
deltas the run publishes and, when a run fails, the exception's type
and message.  The Hadoop job runs in one rack through one box, so a
shape with another rack or box count must be refused, naming the
field, where the frozen driver ran it as one rack and one box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggbox.functions import DEFAULT_CORE_RATE
from repro.cluster.deployment import TestbedConfig
from repro.cluster.emulator import (
    Barrier,
    Resource,
    TransferChain,
    publish_run,
)
from repro.cluster.hadoop_driver import (
    HadoopEmulation,
    HadoopRunResult,
    JobProfile,
)
from repro.cluster.solr_driver import (
    SolrEmulation,
    SolrEmulationParams,
    SolrRunResult,
)
from repro.netsim.engine import EventQueue
from repro.obs import METRICS
from repro.units import GB, KB, MB, Gbps, to_gbps


@dataclass(frozen=True)
class _TestbedShape:
    """``TestbedConfig`` with every field it had, at its old defaults."""

    racks: int = 1
    backends_per_rack: int = 10
    clients_per_rack: int = 5
    edge_rate: float = Gbps(1.0)
    box_link_rate: float = Gbps(10.0)
    box_cores: int = 16
    boxes_per_rack: int = 1
    backend_cores: int = 8
    master_cores: int = 12
    core_rate: float = DEFAULT_CORE_RATE
    disk_rate: float = 120 * MB

    @property
    def n_backends(self) -> int:
        return self.racks * self.backends_per_rack


@dataclass(frozen=True)
class _SolrShape:
    """``SolrEmulationParams`` with every field it had, at its old
    defaults."""

    n_clients: int = 30
    result_bytes: float = 200 * KB
    backend_cpu_seconds: float = 0.012
    use_netagg: bool = False
    alpha: float = 0.05
    agg_cpu_factor: float = 0.25
    frontend_cpu_seconds: float = 0.001
    duration: float = 20.0
    seed: int = 1


class _FrozenSolrEmulation:
    """``SolrEmulation`` before the run object (``run`` verbatim)."""

    def __init__(self, config: _TestbedShape, params: _SolrShape) -> None:
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


class _FrozenHadoopEmulation:
    """``HadoopEmulation`` before the run object (``run`` verbatim)."""

    def __init__(self, config: _TestbedShape) -> None:
        self._config = config

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


def _outcome(run: Callable[[], object]):
    """What one run shows from outside: its result (or the exception
    it raised) and the ``cluster.*`` counters it published."""
    METRICS.reset("cluster.")
    try:
        result = run()
    except (ValueError, RuntimeError) as exc:
        result = (type(exc), str(exc))
    return result, METRICS.snapshot("cluster.")


@st.composite
def _shapes(draw):
    """The testbed knobs a caller can set: racks, backends and boxes
    per rack, box cores."""
    return dict(racks=draw(st.integers(1, 2)),
                backends_per_rack=draw(st.integers(1, 5)),
                boxes_per_rack=draw(st.integers(1, 3)),
                box_cores=draw(st.integers(1, 4)))


@st.composite
def _solr_cases(draw):
    shape = draw(_shapes())
    params = dict(
        n_clients=draw(st.integers(1, 12)),
        use_netagg=draw(st.booleans()),
        alpha=draw(st.floats(0.01, 1.0)),
        agg_cpu_factor=draw(st.floats(0.05, 16.0)),
        duration=draw(st.floats(0.005, 0.4)),
        seed=draw(st.integers(0, 2 ** 16)))
    return shape, params


@st.composite
def _hadoop_cases(draw):
    shape = draw(_shapes())
    profile = JobProfile("job", output_ratio=draw(st.floats(1e-6, 1.0)),
                         cpu_factor=draw(st.floats(0.05, 8.0)),
                         aggregatable=draw(st.booleans()))
    run = dict(intermediate_bytes=draw(st.floats(1.0, 4 * GB)),
               use_netagg=draw(st.booleans()),
               n_reducers=draw(st.integers(1, 6)))
    return shape, profile, run


#: The seed-1 fig19 pair the ``emu_solr`` benchmark runs, cut short.
FIG19_NETAGG = (dict(racks=2, backends_per_rack=10),
                dict(n_clients=140, use_netagg=True, duration=0.3))
FIG19_PLAIN = (dict(racks=1, backends_per_rack=10),
               dict(n_clients=70, use_netagg=False, duration=0.3))
#: The one-query hand count of ``tests/test_cluster.py``.
ONE_QUERY = (dict(racks=1, backends_per_rack=3),
             dict(n_clients=1, duration=0.02, use_netagg=True, seed=4))
#: Scale-out with a CPU-bound box, and a run too short to finish.
SCALE_OUT = (dict(boxes_per_rack=2),
             dict(n_clients=30, duration=0.3, use_netagg=True,
                  agg_cpu_factor=12.0))
TOO_SHORT = (dict(), dict(n_clients=3, duration=0.001))


@settings(max_examples=120, deadline=None)
@given(case=_solr_cases())
@example(case=FIG19_NETAGG)
@example(case=FIG19_PLAIN)
@example(case=ONE_QUERY)
@example(case=SCALE_OUT)
@example(case=TOO_SHORT)
def test_solr_matches_the_frozen_driver(case):
    shape, params = case
    frozen = _outcome(_FrozenSolrEmulation(
        _TestbedShape(**shape), _SolrShape(**params)).run)
    live = _outcome(SolrEmulation(
        TestbedConfig(**shape), SolrEmulationParams(**params)).run)
    assert live == frozen


#: About five of six drawn shapes are refused: five times the examples
#: keep about as many comparisons as before the refusal.
@settings(max_examples=600, deadline=None)
@given(case=_hadoop_cases())
@example(case=(dict(), JobProfile("WC", 0.1, 1.0, True),
               dict(intermediate_bytes=2 * GB, use_netagg=True,
                    n_reducers=1)))
@example(case=(dict(), JobProfile("WC", 0.1, 1.0, True),
               dict(intermediate_bytes=4 * GB, use_netagg=False,
                    n_reducers=8)))
@example(case=(dict(backends_per_rack=2), JobProfile("WC", 0.1, 1.0, True),
               dict(intermediate_bytes=1 * GB, use_netagg=True,
                    n_reducers=1)))
def test_hadoop_matches_the_frozen_driver(case):
    """Equal to the frozen driver on one rack with one box; any other
    shape, which the frozen driver silently ran as one rack and one
    box, is refused with the field named."""
    shape, profile, run = case
    config = TestbedConfig(**shape)
    wrong = [name for name in ("racks", "boxes_per_rack")
             if getattr(config, name) != 1]
    if wrong:
        with pytest.raises(ValueError, match=wrong[0]):
            HadoopEmulation(config)
        return
    frozen = _outcome(partial(_FrozenHadoopEmulation(
        _TestbedShape(**shape)).run, profile, **run))
    live = _outcome(partial(HadoopEmulation(config).run, profile, **run))
    assert live == frozen


def test_bad_hadoop_arguments_fail_alike():
    """Bad byte and reducer counts raise the same error in both."""
    profile = JobProfile("WC", 0.1, 1.0, True)
    for run in (dict(intermediate_bytes=0.0), dict(n_reducers=0)):
        frozen = _outcome(partial(_FrozenHadoopEmulation(
            _TestbedShape()).run, profile, **run))
        live = _outcome(partial(HadoopEmulation(TestbedConfig()).run,
                                profile, **run))
        assert live == frozen
        assert isinstance(live[0], tuple) and live[0][0] is ValueError

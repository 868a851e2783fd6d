"""``emu_solr``: the testbed emulator behind Figs. 16-21.

One unit of work is the fig19 pair -- a two-rack NetAgg run (140
clients, box CPU is the bottleneck, many events) and a one-rack plain
Solr run (70 clients, the frontend link is the bottleneck, everything
goes through ``Barrier``); one op is one emulated query completed.  All
host time is ``cluster.Resource._pump`` and ``netsim.engine``: the
max-min solver does nothing here.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Tuple

from repro.cluster.deployment import TestbedConfig
from repro.cluster.emulator import Resource
from repro.cluster.hadoop_driver import HadoopEmulation, JobProfile
from repro.cluster.solr_driver import (
    SolrEmulation,
    SolrEmulationParams,
    SolrRunResult,
)
from repro.netsim.engine import EventQueue

from trace import NULL
from workload import TraceRun, Workload

EMULATED_SECONDS = 2.0
_SUB_SEEDS = 2


def _crc(results: Tuple[SolrRunResult, ...]) -> int:
    crc = 0
    for result in results:
        crc = zlib.crc32(struct.pack(
            f"<qd{len(result.latencies)}d", result.requests_completed,
            result.injected_bytes, *result.latencies), crc)
    return crc


class EmuSolr(Workload):
    span_metrics = {
        "cluster.solr.netagg_run": "cluster.solr.netagg_run_ms",
        "cluster.solr.plain_run": "cluster.solr.plain_run_ms",
    }
    min_samples = 40

    def setup(self, seed: int) -> None:
        self._seeds = [seed * 1000 + sub for sub in range(_SUB_SEEDS)]
        self.units = len(self._seeds)
        self._completed: Dict[int, int] = {}
        self.run_unit(0, NULL)   # warm-up: one full iteration

    def run_unit(self, unit: int, rec) -> Tuple[SolrRunResult, ...]:
        seed = self._seeds[unit]
        with rec.span("cluster.solr.netagg_run"):
            netagg = SolrEmulation(
                TestbedConfig(racks=2, backends_per_rack=10),
                SolrEmulationParams(n_clients=140, use_netagg=True,
                                    duration=EMULATED_SECONDS, seed=seed),
            ).run()
        with rec.span("cluster.solr.plain_run"):
            plain = SolrEmulation(
                TestbedConfig(racks=1, backends_per_rack=10),
                SolrEmulationParams(n_clients=70, use_netagg=False,
                                    duration=EMULATED_SECONDS, seed=seed),
            ).run()
        return netagg, plain

    def check(self, unit: int, results: Tuple[SolrRunResult, ...]):
        ops = sum(r.requests_completed for r in results)
        sane = all(
            r.requests_completed == len(r.latencies)
            and all(0.0 < lat <= EMULATED_SECONDS for lat in r.latencies)
            for r in results)
        same = self.same_digest(unit, _crc(results))
        self._completed[unit] = ops
        return ops, (0 if sane and same else ops), ()

    def probes(self, run: TraceRun) -> Dict[str, float]:
        completed = sum(self._completed.values())
        metrics: Dict[str, float] = {
            "cluster.solr.requests_completed": completed,
            "cluster.solr.us_per_query": 1e3 * sum(
                run.spans_ms[name] for name in self.span_metrics.values())
            / completed,
            "cluster.result_crc32": self.digest(),
        }

        def best_us(metric: str, work, count: int, repeats: int = 5) -> None:
            """Lowest normalised microseconds per item over repeats."""
            with run.rec.span(metric):
                metrics[metric] = 1e6 * min(
                    run.timer.run(0, work, lambda n: (n, 0, ())).norm_wall
                    for _ in range(repeats)) / count

        profile = JobProfile(name="wordcount", output_ratio=0.1,
                             cpu_factor=1.0, aggregatable=True)
        best_us("cluster.hadoop.run_ms",
                lambda: HadoopEmulation().run(profile, use_netagg=True)
                and 1, count=1000, repeats=3)      # per 1000: us -> ms
        best_us("cluster.resource.us_per_request_s1",
                lambda: _resource_requests(1, 50_000), 50_000)
        best_us("cluster.resource.us_per_request_s8",
                lambda: _resource_requests(8, 50_000), 50_000)
        best_us("netsim.engine.us_per_event",
                lambda: _engine_events(200_000, batch=False), 200_000)
        best_us("netsim.engine.batch_us_per_event",
                lambda: _engine_events(200_000, batch=True), 200_000)
        return metrics


def _noop() -> None:
    pass


def _resource_requests(servers: int, count: int) -> int:
    """``count`` requests through one ``Resource``, drained by ``run``."""
    queue = EventQueue()
    resource = Resource(queue, "probe", rate=1.0, servers=servers)
    for _ in range(count):
        resource.request(1e-3, _noop)
    queue.run()
    return resource.completed


def _engine_events(count: int, batch: bool) -> int:
    """``count`` no-op events, four per timestamp, through the engine."""
    queue = EventQueue()
    for i in range(count):
        queue.schedule_at((i // 4) * 1e-3, _noop)
    executed = 0
    if batch:
        while True:
            ran = queue.step_batch()
            if not ran:
                return executed
            executed += ran
    while queue.step():
        executed += 1
    return executed


def emu_solr() -> EmuSolr:
    return EmuSolr()

"""Tests for the dynamic WFQ executor and the timed agg box."""

import pytest

from repro.aggbox.box import AppBinding
from repro.aggbox.functions import DEFAULT_CORE_RATE, SumFunction
from repro.aggbox.scheduler import WfqExecutor
from repro.aggbox.timed import TimedAggBox
from repro.experiments import QUICK, ablation_colocation
from repro.netsim.engine import EventQueue
from repro.wire.serializer import write_float
from tests.codecs import read_float


def binding(app="sum"):
    return AppBinding(
        app=app,
        function=SumFunction(),
        deserialise=lambda b: read_float(b)[0],
        serialise=write_float,
    )


class TestWfqExecutor:
    def test_single_task_runs_for_duration(self):
        queue = EventQueue()
        executor = WfqExecutor(queue, threads=1)
        executor.register_app("a")
        done = []
        executor.submit("a", 0.5, lambda: done.append(queue.now))
        queue.run()
        assert done == [0.5]

    def test_parallelism_bounded_by_threads(self):
        queue = EventQueue()
        executor = WfqExecutor(queue, threads=2)
        executor.register_app("a")
        done = []
        for _ in range(4):
            executor.submit("a", 1.0, lambda: done.append(queue.now))
        queue.run()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_fixed_weights_are_count_fair(self):
        """Equal pick counts: the long-task app hogs CPU time (the
        Fig. 25 pathology)."""
        queue = EventQueue()
        executor = WfqExecutor(queue, threads=1, adaptive=False)
        executor.register_app("long", 0.5)
        executor.register_app("short", 0.5)
        for _ in range(50):
            executor.submit("long", 0.030, lambda: None)
            executor.submit("short", 0.001, lambda: None)
        queue.run()
        share = executor.cpu_seconds["long"] / sum(
            executor.cpu_seconds.values())
        assert share > 0.9

    def test_adaptive_weights_are_time_fair(self):
        queue = EventQueue()
        executor = WfqExecutor(queue, threads=1, adaptive=True)
        executor.register_app("long", 0.5)
        executor.register_app("short", 0.5)
        # Backlog both queues, then drain for a fixed horizon.
        for _ in range(400):
            executor.submit("long", 0.030, lambda: None)
        for _ in range(12000):
            executor.submit("short", 0.001, lambda: None)
        queue.run(until=6.0)
        total = sum(executor.cpu_seconds.values())
        share = executor.cpu_seconds["long"] / total
        assert share == pytest.approx(0.5, abs=0.1)

    def test_validation(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            WfqExecutor(queue, threads=0)
        executor = WfqExecutor(queue)
        executor.register_app("a")
        with pytest.raises(ValueError):
            executor.register_app("a")
        with pytest.raises(KeyError):
            executor.submit("ghost", 1.0, lambda: None)
        with pytest.raises(ValueError):
            executor.submit("a", -1.0, lambda: None)


class TestTimedAggBox:
    def test_emits_after_cpu_time(self):
        queue = EventQueue()
        box = TimedAggBox(queue, cores=2)
        box.register_app(binding())
        emitted = []
        box.announce("sum", "r", expected=2,
                     on_emit=lambda v, t: emitted.append((v, t)))
        half_second = DEFAULT_CORE_RATE / 2               # 0.5s on a core
        box.submit("sum", "r", "w0", 1.0, nbytes=half_second)
        box.submit("sum", "r", "w1", 2.0, nbytes=half_second)
        queue.run()
        assert emitted == [(3.0, 0.5)]  # both merges in parallel

    def test_latency_measured_from_first_arrival(self):
        queue = EventQueue()
        box = TimedAggBox(queue, cores=1)
        box.register_app(binding())
        box.announce("sum", "r", expected=2)
        box.submit("sum", "r", "w0", 1.0, nbytes=DEFAULT_CORE_RATE)
        box.submit("sum", "r", "w1", 1.0, nbytes=DEFAULT_CORE_RATE)
        queue.run()
        (latency,) = box.latencies("sum")
        assert latency == pytest.approx(2.0)  # serialised on one core

    def test_multi_app_contention(self):
        queue = EventQueue()
        box = TimedAggBox(queue, cores=1, adaptive=True)
        box.register_app(binding("a"), target_share=0.5)
        box.register_app(binding("b"), target_share=0.5)
        for i in range(5):
            box.announce("a", f"r{i}", expected=1)
            box.submit("a", f"r{i}", "w", 1.0, nbytes=80_000.0)
            box.announce("b", f"r{i}", expected=1)
            box.submit("b", f"r{i}", "w", 1.0, nbytes=80_000.0)
        queue.run()
        assert len(box.latencies("a")) == 5
        assert len(box.latencies("b")) == 5


class TestColocationAblation:
    def test_adaptive_rescues_batch_latency(self):
        result = ablation_colocation.run(scale=QUICK)
        rows = {r["scheduler"]: r for r in result.rows}
        assert rows["fixed"]["batch_p99_ms"] > \
            20 * rows["adaptive"]["batch_p99_ms"]
        assert rows["fixed"]["online_cpu_share"] > 0.9
        assert rows["adaptive"]["batch_done"] > \
            3 * rows["fixed"]["batch_done"]

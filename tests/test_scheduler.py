"""Tests for the cooperative WFQ task scheduler (Figs. 25/26)."""

import pytest

from repro.aggbox.scheduler import TaskScheduler, WorkloadSpec


def make(adaptive, solr_ms=30.0, hadoop_ms=1.0, seed=1):
    return TaskScheduler(
        [
            WorkloadSpec("solr", task_seconds=solr_ms / 1e3,
                         target_share=0.5),
            WorkloadSpec("hadoop", task_seconds=hadoop_ms / 1e3,
                         target_share=0.5),
        ],
        adaptive=adaptive,
        seed=seed,
    )


class TestValidation:
    def test_workload_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("a", task_seconds=0.0, target_share=0.5)
        with pytest.raises(ValueError):
            WorkloadSpec("a", task_seconds=0.1, target_share=0.0)

    def test_scheduler_validation(self):
        with pytest.raises(ValueError):
            TaskScheduler([])
        spec = WorkloadSpec("a", task_seconds=0.1, target_share=0.5)
        with pytest.raises(ValueError):
            TaskScheduler([spec, spec])

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            make(adaptive=False).run(0.0)


class TestFixedWeights:
    def test_long_task_app_starves_the_other(self):
        """Fig. 25: fixed 50/50 picks give the 30ms-task app ~97% CPU."""
        result = make(adaptive=False).run(30.0)
        assert result.overall_share("solr") > 0.85
        assert result.overall_share("hadoop") < 0.15

    def test_equal_tasks_fairly_shared(self):
        result = make(adaptive=False, solr_ms=5.0, hadoop_ms=5.0).run(30.0)
        assert result.overall_share("solr") == pytest.approx(0.5, abs=0.1)


class TestAdaptiveWeights:
    def test_restores_target_shares(self):
        """Fig. 26: adaptive weights converge to the 50/50 target."""
        result = make(adaptive=True).run(30.0)
        assert result.overall_share("solr") == pytest.approx(0.5, abs=0.08)
        assert result.overall_share("hadoop") == pytest.approx(0.5, abs=0.08)

    def test_respects_unequal_targets(self):
        scheduler = TaskScheduler(
            [
                WorkloadSpec("big", task_seconds=0.03, target_share=0.75),
                WorkloadSpec("small", task_seconds=0.001, target_share=0.25),
            ],
            adaptive=True,
            seed=3,
        )
        result = scheduler.run(30.0)
        assert result.overall_share("big") == pytest.approx(0.75, abs=0.1)

    def test_timeline_windows_cover_run(self):
        result = make(adaptive=True).run(10.0)
        assert len(result.timeline) >= 9
        for _, snapshot in result.timeline:
            total = sum(snapshot.values())
            assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0

    def test_deterministic_given_seed(self):
        a = make(adaptive=True, seed=7).run(10.0)
        b = make(adaptive=True, seed=7).run(10.0)
        assert a.shares["solr"].cpu_seconds == b.shares["solr"].cpu_seconds

    def test_run_publishes_its_task_count_once(self):
        """The bench ledger's view of Figs. 25-26: one counter bump per
        run, equal to the tasks the run started."""
        from repro.obs import METRICS

        counter = METRICS.counter("aggbox.scheduler.tasks")
        before = counter.value
        result = make(adaptive=True).run(2.0)
        assert counter.value - before == sum(
            share.tasks_run for share in result.shares.values()) > 0

    def test_single_app_gets_everything(self):
        scheduler = TaskScheduler(
            [WorkloadSpec("only", task_seconds=0.01, target_share=1.0)],
            adaptive=True,
        )
        result = scheduler.run(5.0)
        assert result.overall_share("only") == pytest.approx(1.0)

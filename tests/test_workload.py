"""Tests for workload generation, placement and stragglers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import ThreeTierParams, three_tier
from repro.units import KB, MB
from repro.workload import (
    AggJob,
    StragglerModel,
    WorkloadParams,
    generate_workload,
    inject_stragglers,
)
from repro.workload.placement import (
    LocalityAwarePlacer,
    PlacementError,
    RandomPlacer,
)
from repro.workload import synthetic
from repro.workload.synthetic import pareto_size, worker_count

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=8
)


class TestAggJob:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            AggJob("j", "host:0", (("host:1", 1.0),), alpha=0.0)
        with pytest.raises(ValueError):
            AggJob("j", "host:0", (("host:1", 1.0),), alpha=1.5)

    def test_requires_workers(self):
        with pytest.raises(ValueError):
            AggJob("j", "host:0", (), alpha=0.5)

    def test_duplicate_worker_host_rejected(self):
        with pytest.raises(ValueError):
            AggJob("j", "host:0",
                   (("host:1", 1.0), ("host:1", 2.0)), alpha=0.5)

    def test_delay_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AggJob("j", "host:0", (("host:1", 1.0),), alpha=0.5,
                   worker_delays=(0.1, 0.2))

    def test_total_bytes(self):
        job = AggJob("j", "host:0",
                     (("host:1", 1.0), ("host:2", 2.0)), alpha=0.5)
        assert job.total_bytes == 3.0

    def test_delay_defaults_to_zero(self):
        job = AggJob("j", "host:0", (("host:1", 1.0),), alpha=0.5)
        assert job.delay_of(0) == 0.0


class TestParetoSize:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_within_bounds(self, seed):
        rng = random.Random(seed)
        size = pareto_size(rng, mean=100 * KB, shape=1.05, maximum=10 * MB)
        xm = 100 * KB * 0.05 / 1.05
        assert xm * 0.999 <= size <= 10 * MB

    def test_mean_roughly_matches(self):
        rng = random.Random(0)
        samples = [
            pareto_size(rng, mean=100.0, shape=2.5, maximum=1e9)
            for _ in range(20_000)
        ]
        assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.1)

    def test_shape_below_one_rejected(self):
        with pytest.raises(ValueError):
            pareto_size(random.Random(0), 100.0, 0.9, 1e9)


class TestWorkerCount:
    def test_power_law_80_percent_below_ten(self):
        rng = random.Random(1)
        params = WorkloadParams()
        counts = [worker_count(rng, params) for _ in range(20_000)]
        below_ten = sum(1 for c in counts if c < 10) / len(counts)
        # With shape 1.5 and xm=2: P(<10) = 1 - (2/10)^1.5 ~ 0.91;
        # the paper's study reports ~80%. Accept the bracket.
        assert 0.7 <= below_ten <= 0.95

    def test_bounds_respected(self):
        rng = random.Random(2)
        params = WorkloadParams(min_workers=3, max_workers=7)
        for _ in range(1000):
            c = worker_count(rng, params)
            assert 3 <= c <= 7


class TestLocalityAwarePlacer:
    def test_small_job_workers_fit_one_rack(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3))
        placed = placer.place_job(4, with_master=True)
        master, workers = placed[0], placed[1:]
        worker_racks = {topo.rack_of(h) for h in workers}
        assert len(placed) == 5
        assert len(worker_racks) == 1
        # Masters (frontends/reducers) are remote by default.
        assert topo.rack_of(master) not in worker_racks

    def test_colocated_master_mode(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3),
                                     remote_master=False)
        placed = placer.place_job(4, with_master=True)
        racks = {topo.rack_of(h) for h in placed}
        assert len(racks) == 1

    def test_large_job_spills_to_same_pod_first(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3),
                                     remote_master=False)
        placed = placer.place_job(11, with_master=True)  # 12 hosts, rack=8
        pods = {topo.pod_of(h) for h in placed}
        assert len(pods) == 1

    def test_no_duplicate_hosts_within_job(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3))
        placed = placer.place_job(20, with_master=True)
        assert len(set(placed)) == len(placed)

    def test_load_spreads_across_jobs(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3))
        first = set(placer.place_job(7, with_master=True))
        second = set(placer.place_job(7, with_master=True))
        # The second job anchors at a different (less loaded) rack.
        assert first != second

    def test_too_big_job_rejected(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3))
        with pytest.raises(PlacementError):
            placer.place_job(len(topo.hosts()) + 1)

    def test_without_master(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3))
        assert len(placer.place_job(4, with_master=False)) == 4


class TestRandomPlacer:
    def test_distinct_hosts(self):
        topo = three_tier(SMALL)
        placer = RandomPlacer(topo, random.Random(4))
        placed = placer.place_job(10)
        assert len(set(placed)) == 11

    def test_too_big_rejected(self):
        topo = three_tier(SMALL)
        placer = RandomPlacer(topo, random.Random(4))
        with pytest.raises(PlacementError):
            placer.place_job(1000)


class TestGenerateWorkload:
    def test_deterministic_for_seed(self):
        topo = three_tier(SMALL)
        w1 = generate_workload(topo, WorkloadParams(n_flows=60), seed=9)
        w2 = generate_workload(three_tier(SMALL),
                               WorkloadParams(n_flows=60), seed=9)
        assert [j.workers for j in w1.jobs] == [j.workers for j in w2.jobs]
        assert [(b.src, b.dst, b.size) for b in w1.background] == \
               [(b.src, b.dst, b.size) for b in w2.background]

    def test_different_seeds_differ(self):
        topo = three_tier(SMALL)
        w1 = generate_workload(topo, WorkloadParams(n_flows=60), seed=1)
        w2 = generate_workload(three_tier(SMALL),
                               WorkloadParams(n_flows=60), seed=2)
        assert [j.workers for j in w1.jobs] != [j.workers for j in w2.jobs]

    def test_flow_budget_respected(self):
        topo = three_tier(SMALL)
        params = WorkloadParams(n_flows=100, aggregatable_fraction=0.4)
        workload = generate_workload(topo, params, seed=5)
        worker_flows = sum(len(j.workers) for j in workload.jobs)
        assert worker_flows + len(workload.background) == 100
        assert worker_flows == pytest.approx(40, abs=2)

    def test_all_aggregatable(self):
        topo = three_tier(SMALL)
        params = WorkloadParams(n_flows=40, aggregatable_fraction=1.0)
        workload = generate_workload(topo, params, seed=5)
        assert not workload.background
        assert sum(len(j.workers) for j in workload.jobs) == 40

    def test_none_aggregatable(self):
        topo = three_tier(SMALL)
        params = WorkloadParams(n_flows=40, aggregatable_fraction=0.0)
        workload = generate_workload(topo, params, seed=5)
        assert not workload.jobs
        assert len(workload.background) == 40

    def test_masters_are_not_workers(self):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=80), seed=6)
        for job in workload.jobs:
            assert job.master not in {h for h, _ in job.workers}

    def test_uniform_arrivals(self):
        topo = three_tier(SMALL)
        params = WorkloadParams(n_flows=80, arrival_process="uniform",
                                arrival_span=2.0)
        workload = generate_workload(topo, params, seed=6)
        starts = [j.start_time for j in workload.jobs] + [
            b.start_time for b in workload.background
        ]
        assert all(0.0 <= s <= 2.0 for s in starts)
        assert max(starts) > 0.0

    def test_simultaneous_arrivals_default(self):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=40),
                                     seed=6)
        starts = [j.start_time for j in workload.jobs] + [
            b.start_time for b in workload.background
        ]
        assert all(s == 0.0 for s in starts)

    def test_poisson_arrivals_spread(self):
        topo = three_tier(SMALL)
        params = WorkloadParams(n_flows=80, arrival_process="poisson",
                                arrival_span=4.0)
        workload = generate_workload(topo, params, seed=6)
        starts = sorted(
            b.start_time for b in workload.background
        )
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(s >= 0.0 for s in starts)
        assert max(starts) > 1.0  # genuinely spread over the span
        assert len(set(gaps)) > len(gaps) // 2  # irregular spacing

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            WorkloadParams(arrival_process="burst")
        with pytest.raises(ValueError):
            WorkloadParams(arrival_process="poisson", arrival_span=0.0)

    def test_n_trees_propagates(self):
        topo = three_tier(SMALL)
        params = WorkloadParams(n_flows=40, n_trees=3)
        workload = generate_workload(topo, params, seed=6)
        assert all(j.n_trees == 3 for j in workload.jobs)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WorkloadParams(n_flows=0)
        with pytest.raises(ValueError):
            WorkloadParams(aggregatable_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadParams(alpha=0.0)
        with pytest.raises(ValueError):
            WorkloadParams(min_workers=5, max_workers=3)


class TestStragglers:
    def test_zero_ratio_no_delays(self):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=60), seed=7)
        delayed = inject_stragglers(workload, StragglerModel(ratio=0.0))
        for job in delayed.jobs:
            assert all(d == 0.0 for d in job.worker_delays)

    def test_full_ratio_all_delayed(self):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=60), seed=7)
        delayed = inject_stragglers(workload, StragglerModel(ratio=1.0))
        for job in delayed.jobs:
            assert all(d > 0.0 for d in job.worker_delays)

    def test_partial_ratio_mixes(self):
        topo = three_tier(SMALL)
        workload = generate_workload(
            topo, WorkloadParams(n_flows=200, aggregatable_fraction=1.0),
            seed=7,
        )
        delayed = inject_stragglers(workload, StragglerModel(ratio=0.5),
                                    seed=11)
        delays = [d for job in delayed.jobs for d in job.worker_delays]
        stragglers = sum(1 for d in delays if d > 0)
        assert 0 < stragglers < len(delays)

    def test_original_workload_untouched(self):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=60), seed=7)
        inject_stragglers(workload, StragglerModel(ratio=1.0))
        assert all(not job.worker_delays for job in workload.jobs)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            StragglerModel(ratio=-0.1)
        with pytest.raises(ValueError):
            StragglerModel(ratio=0.5, mean_delay=0.0)


class TestFragmentation:
    def test_zero_fragmentation_stays_local(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3),
                                     remote_master=False,
                                     fragmentation=0.0)
        placed = placer.place_job(4, with_master=True)
        assert len({topo.rack_of(h) for h in placed}) == 1

    def test_full_fragmentation_scatters(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3),
                                     remote_master=False,
                                     fragmentation=1.0)
        placed = placer.place_job(6, with_master=True)
        # The anchor slot (index 0) stays; everything else can move.
        assert len({topo.rack_of(h) for h in placed}) > 1

    def test_fragmented_hosts_still_distinct(self):
        topo = three_tier(SMALL)
        placer = LocalityAwarePlacer(topo, random.Random(3),
                                     fragmentation=0.5)
        for _ in range(5):
            placed = placer.place_job(8, with_master=True)
            assert len(set(placed)) == len(placed)

    def test_invalid_fragmentation_rejected(self):
        topo = three_tier(SMALL)
        with pytest.raises(ValueError):
            LocalityAwarePlacer(topo, random.Random(3), fragmentation=1.5)

    def test_workload_param_plumbs_through(self, monkeypatch):
        topo = three_tier(SMALL)
        monkeypatch.setattr(synthetic, "FRAGMENTATION", 0.0)
        tight = generate_workload(
            topo, WorkloadParams(n_flows=120, aggregatable_fraction=1.0,
                                 max_workers=12),
            seed=4,
        )
        topo2 = three_tier(SMALL)
        monkeypatch.setattr(synthetic, "FRAGMENTATION", 0.9)
        loose = generate_workload(
            topo2, WorkloadParams(n_flows=120, aggregatable_fraction=1.0,
                                  max_workers=12),
            seed=4,
        )

        def mean_racks(workload, topo):
            spans = [
                len({topo.rack_of(h) for h, _ in job.workers})
                for job in workload.jobs
            ]
            return sum(spans) / len(spans)

        assert mean_racks(loose, topo2) > mean_racks(tight, topo)

"""Tests for the testbed emulator (resources, Solr and Hadoop drivers)."""

import pytest

from repro.cluster import (
    HadoopEmulation,
    Resource,
    SolrEmulation,
    TestbedConfig,
    TransferChain,
)
from repro.cluster.emulator import Barrier
from repro.cluster.hadoop_driver import JobProfile, measure_job_profile
from repro.cluster.solr_driver import SolrEmulationParams
from repro.apps.hadoop import generate_text, wordcount_job
from repro.netsim.engine import EventQueue
from repro.obs import METRICS
from repro.units import GB


class TestResource:
    def test_single_job_service_time(self):
        queue = EventQueue()
        resource = Resource(queue, "nic", rate=10.0)
        done = []
        resource.request(50.0, lambda: done.append(queue.now))
        queue.run()
        assert done == [5.0]

    def test_fifo_ordering(self):
        queue = EventQueue()
        resource = Resource(queue, "nic", rate=10.0)
        done = []
        resource.request(10.0, lambda: done.append(("a", queue.now)))
        resource.request(10.0, lambda: done.append(("b", queue.now)))
        queue.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_multi_server_parallelism(self):
        queue = EventQueue()
        pool = Resource(queue, "cpu", rate=1.0, servers=2)
        done = []
        for _ in range(2):
            pool.request(1.0, lambda: done.append(queue.now))
        queue.run()
        assert done == [1.0, 1.0]

    def test_utilisation(self):
        queue = EventQueue()
        resource = Resource(queue, "nic", rate=10.0)
        resource.request(50.0, lambda: None)
        queue.run()
        assert resource.busy_time / 10.0 == pytest.approx(0.5)
        assert resource.completed == 1

    def test_validation(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            Resource(queue, "bad", rate=0.0)
        with pytest.raises(ValueError):
            Resource(queue, "bad", rate=1.0, servers=0)
        resource = Resource(queue, "ok", rate=1.0)
        with pytest.raises(ValueError):
            resource.request(-1.0, lambda: None)


class TestResourceEdgeCases:
    def test_zero_amount_completes_through_the_queue(self):
        queue = EventQueue()
        nic = Resource(queue, "nic", rate=10.0)
        done = []
        queue.schedule_at(2.0, lambda: nic.request(
            0.0, lambda: done.append(queue.now)))
        queue.run(until=2.0)
        assert done == [2.0] and nic.completed == 1 and nic.busy_time == 0.0
        nic.request(0.0, lambda: done.append("sync"))
        assert done == [2.0]        # never fired from inside request()

    def test_rerequest_from_done_sees_the_freed_server(self):
        queue = EventQueue()
        nic = Resource(queue, "nic", rate=1.0)
        done = []

        def again():
            done.append(("first", queue.now))
            nic.request(1.0, lambda: done.append(("second", queue.now)))
            assert len(nic._waiting) == 0    # dispatched on the spot

        nic.request(1.0, again)
        queue.run()
        assert done == [("first", 1.0), ("second", 2.0)]

    def test_rerequest_from_done_queues_behind_waiting_work(self):
        queue = EventQueue()
        nic = Resource(queue, "nic", rate=1.0)
        done = []

        def again():
            done.append(("a", queue.now))
            nic.request(1.0, lambda: done.append(("a2", queue.now)))
            assert len(nic._waiting) == 1    # "b" took the server

        nic.request(1.0, again)
        nic.request(1.0, lambda: done.append(("b", queue.now)))
        queue.run()
        assert done == [("a", 1.0), ("b", 2.0), ("a2", 3.0)]


class TestTransferChain:
    def test_sequential_stages(self):
        queue = EventQueue()
        a = Resource(queue, "a", rate=10.0)
        b = Resource(queue, "b", rate=5.0)
        done = []
        TransferChain([(a, 10.0), (b, 10.0)]).start(
            lambda: done.append(queue.now))
        queue.run()
        assert done == [1.0 + 2.0]

    def test_pipelining_across_transfers(self):
        queue = EventQueue()
        a = Resource(queue, "a", rate=10.0)
        b = Resource(queue, "b", rate=10.0)
        done = []
        for _ in range(3):
            TransferChain([(a, 10.0), (b, 10.0)]).start(
                lambda: done.append(queue.now))
        queue.run()
        # Store-and-forward pipeline: last one at 4s, not 6s.
        assert done[-1] == pytest.approx(4.0)


    def test_empty_chain_completes_at_once(self):
        done = []
        TransferChain([]).start(lambda: done.append(True))
        assert done == [True]

    def test_last_stage_hands_done_straight_to_the_resource(self):
        queue = EventQueue()
        stages = [(Resource(queue, name, rate=1.0), 1.0) for name in "abc"]
        done = []
        TransferChain(stages).start(lambda: done.append(queue.now))
        assert queue.run() == 3     # one event per stage, none extra
        assert done == [3.0]
        assert [resource.completed for resource, _ in stages] == [1, 1, 1]


class TestBarrier:
    def test_fires_after_all_arms(self):
        fired = []
        barrier = Barrier(3, lambda: fired.append(True))
        arms = [barrier.arm() for _ in range(3)]
        for arm in arms[:2]:
            arm()
        assert not fired
        arms[2]()
        assert fired == [True]

    def test_over_release_raises(self):
        barrier = Barrier(1, lambda: None)
        arm = barrier.arm()
        arm()
        with pytest.raises(RuntimeError):
            barrier.arm()()

    def test_validation(self):
        with pytest.raises(ValueError):
            Barrier(0, lambda: None)


class TestSolrEmulation:
    def test_plain_saturates_frontend_link(self):
        result = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=30, duration=5.0)).run()
        assert 0.9 < result.throughput_gbps < 1.3

    def test_netagg_exceeds_plain(self):
        plain = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=50, duration=5.0)).run()
        netagg = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=50, duration=5.0, use_netagg=True)).run()
        assert netagg.throughput_gbps > 5 * plain.throughput_gbps
        assert netagg.p99_latency < plain.p99_latency

    def test_throughput_grows_with_clients_before_saturation(self):
        small = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=5, duration=5.0, use_netagg=True)).run()
        large = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=20, duration=5.0, use_netagg=True)).run()
        assert large.throughput_gbps > 2 * small.throughput_gbps

    def test_alpha_one_converges_to_plain(self):
        plain = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=50, duration=5.0)).run()
        netagg = SolrEmulation(TestbedConfig(), SolrEmulationParams(
            n_clients=50, duration=5.0, use_netagg=True, alpha=1.0)).run()
        assert netagg.throughput_gbps == pytest.approx(
            plain.throughput_gbps, rel=0.15
        )

    def test_scale_out_doubles_cpu_bound_throughput(self):
        one = SolrEmulation(
            TestbedConfig(boxes_per_rack=1),
            SolrEmulationParams(n_clients=70, duration=5.0,
                                use_netagg=True, agg_cpu_factor=12.0),
        ).run()
        two = SolrEmulation(
            TestbedConfig(boxes_per_rack=2),
            SolrEmulationParams(n_clients=70, duration=5.0,
                                use_netagg=True, agg_cpu_factor=12.0),
        ).run()
        assert two.throughput_gbps == pytest.approx(
            2 * one.throughput_gbps, rel=0.2
        )

    def test_deterministic(self):
        params = SolrEmulationParams(n_clients=10, duration=3.0,
                                     use_netagg=True)
        a = SolrEmulation(TestbedConfig(), params).run()
        b = SolrEmulation(TestbedConfig(), params).run()
        assert a.requests_completed == b.requests_completed
        assert a.latencies == b.latencies

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SolrEmulationParams(n_clients=0)
        with pytest.raises(ValueError):
            SolrEmulationParams(alpha=0.0)
        with pytest.raises(ValueError):
            SolrEmulationParams(duration=0.0)


class TestHadoopEmulation:
    def profile(self, alpha=0.1, cpu=1.0):
        return JobProfile("WC", output_ratio=alpha, cpu_factor=cpu,
                          aggregatable=True)

    def test_netagg_speeds_up_shuffle(self):
        emulation = HadoopEmulation(TestbedConfig())
        plain = emulation.run(self.profile(), 2 * GB, use_netagg=False)
        netagg = emulation.run(self.profile(), 2 * GB, use_netagg=True)
        speedup = (plain.shuffle_reduce_seconds
                   / netagg.shuffle_reduce_seconds)
        assert 2.0 < speedup < 10.0

    def test_speedup_grows_with_data(self):
        emulation = HadoopEmulation(TestbedConfig())

        def speedup(nbytes):
            plain = emulation.run(self.profile(), nbytes, use_netagg=False)
            netagg = emulation.run(self.profile(), nbytes, use_netagg=True)
            return (plain.shuffle_reduce_seconds
                    / netagg.shuffle_reduce_seconds)

        assert speedup(16 * GB) > speedup(2 * GB)

    def test_low_alpha_helps_more(self):
        emulation = HadoopEmulation(TestbedConfig())

        def relative(alpha):
            plain = emulation.run(self.profile(alpha), 2 * GB,
                                  use_netagg=False)
            netagg = emulation.run(self.profile(alpha), 2 * GB,
                                   use_netagg=True)
            return (netagg.shuffle_reduce_seconds
                    / plain.shuffle_reduce_seconds)

        assert relative(0.02) < relative(0.5)

    def test_non_aggregatable_rejected(self):
        emulation = HadoopEmulation(TestbedConfig())
        profile = JobProfile("TS", output_ratio=0.99, cpu_factor=1.0,
                             aggregatable=False)
        with pytest.raises(ValueError):
            emulation.run(profile, 1 * GB, use_netagg=True)

    def test_box_rate_positive_and_bounded(self):
        emulation = HadoopEmulation(TestbedConfig())
        netagg = emulation.run(self.profile(), 2 * GB, use_netagg=True)
        assert 0.0 < netagg.box_processing_gbps <= 10.5

    def test_measure_profile_from_real_run(self):
        text = generate_text(200, vocabulary=50, seed=3)
        splits = [text[i:i + 50] for i in range(0, 200, 50)]
        profile = measure_job_profile(wordcount_job(), splits,
                                      use_combiner=False)
        assert profile.name == "WC"
        assert 0.0 < profile.output_ratio < 0.3
        assert profile.aggregatable

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            JobProfile("x", output_ratio=0.0, cpu_factor=1.0,
                       aggregatable=True)
        with pytest.raises(ValueError):
            JobProfile("x", output_ratio=0.5, cpu_factor=0.0,
                       aggregatable=True)


class TestMultiReducer:
    def profile(self):
        return JobProfile("WC", output_ratio=0.1, cpu_factor=1.0,
                          aggregatable=True)

    def test_more_reducers_speed_up_plain_shuffle(self):
        emulation = HadoopEmulation(TestbedConfig())
        one = emulation.run(self.profile(), 4 * GB, n_reducers=1)
        four = emulation.run(self.profile(), 4 * GB, n_reducers=4)
        assert four.shuffle_reduce_seconds < one.shuffle_reduce_seconds

    def test_netagg_advantage_decays_with_reducers(self):
        emulation = HadoopEmulation(TestbedConfig())

        def speedup(n_reducers):
            plain = emulation.run(self.profile(), 4 * GB,
                                  n_reducers=n_reducers)
            netagg = emulation.run(self.profile(), 4 * GB,
                                   use_netagg=True, n_reducers=n_reducers)
            return (plain.shuffle_reduce_seconds
                    / netagg.shuffle_reduce_seconds)

        assert speedup(1) > speedup(8) > 1.0

    def test_reducer_count_validated(self):
        emulation = HadoopEmulation(TestbedConfig())
        with pytest.raises(ValueError):
            emulation.run(self.profile(), 1 * GB, n_reducers=0)


class TestRunAccounting:
    """Each emulation run publishes what it did to METRICS, once."""

    NAMES = ("cluster.queries", "cluster.shuffles",
             "cluster.resource.dispatches", "cluster.engine_events")

    def published(self, run):
        METRICS.reset("cluster.")
        run()
        snapshot = METRICS.snapshot("cluster.")
        return {name: snapshot.get(name, 0) for name in self.NAMES}

    def test_plain_hadoop_counts_match_a_hand_count(self):
        config = TestbedConfig()
        profile = JobProfile("WC", output_ratio=0.1, cpu_factor=1.0,
                             aggregatable=True)
        counts = self.published(lambda: HadoopEmulation(config).run(
            profile, 1 * GB, n_mappers=2))
        # 2 mapper NICs -> 2 reducer-link transfers -> one core-wide
        # reduce -> 1 disk spill; every event is a completion.
        requests = 2 + 2 + config.backend_cores + 1
        assert counts == {"cluster.queries": 0, "cluster.shuffles": 1,
                          "cluster.resource.dispatches": requests,
                          "cluster.engine_events": requests}

    def test_netagg_hadoop_counts_match_a_hand_count(self):
        config = TestbedConfig()
        profile = JobProfile("WC", output_ratio=0.1, cpu_factor=1.0,
                             aggregatable=True)
        counts = self.published(lambda: HadoopEmulation(config).run(
            profile, 1 * GB, use_netagg=True, n_mappers=2))
        # 64 chunks per mapper through NIC, box link and box CPU, then
        # box-out, reducer link, the reduce and the spill; each chunk
        # also costs its mapper one zero-delay "send the next" event.
        requests = 2 * 64 * 3 + 1 + 1 + config.backend_cores + 1
        assert counts["cluster.resource.dispatches"] == requests
        assert counts["cluster.engine_events"] == requests + 2 * 64
        assert counts["cluster.shuffles"] == 1

    def test_one_solr_query_counts_match_a_hand_count(self):
        config = TestbedConfig(racks=1, backends_per_rack=3)
        # One client, and time for exactly one query to finish.
        params = SolrEmulationParams(n_clients=1, duration=0.02,
                                     use_netagg=True, seed=4)
        result = SolrEmulation(config, params).run
        counts = self.published(result)
        assert counts["cluster.queries"] == 1
        # Query 1: 3 x (CPU, NIC, box link) + box CPU, box-out, frontend
        # link, frontend CPU = 13, all done.  Query 2 is cut off with
        # its three searches (12-13 ms each) still running.
        assert counts["cluster.resource.dispatches"] == 13
        # ... plus the client's start event.
        assert counts["cluster.engine_events"] == 14

    def test_counts_repeat_for_a_fixed_seed(self):
        params = SolrEmulationParams(n_clients=20, duration=1.0,
                                     use_netagg=True, seed=7)
        run = SolrEmulation(TestbedConfig(), params).run
        first, second = self.published(run), self.published(run)
        assert first == second
        assert first["cluster.queries"] > 20
        assert (first["cluster.engine_events"]
                > first["cluster.resource.dispatches"] > 0)

"""Integration tests: the NetAgg platform executing real requests."""

import pytest
from hypothesis import given

from repro.aggbox.functions import (
    CombinerFunction,
    SumFunction,
    TopKFunction,
)
from repro.aggbox.overload import HEALTHY
from repro.aggregation import deploy_boxes
from repro.apps.mlgrad import VectorSumFunction, decode_vector, encode_vector
from repro.core import NetAggPlatform, OverloadConfig
from repro.faults import FaultSchedule, PlatformFaultInjector, RetryPolicy
from repro.obs import METRICS
from repro.topology import ThreeTierParams, three_tier
from repro.topology.base import CORE
from repro.wire.records import (
    KeyValue,
    SearchResult,
    decode_kv_stream,
    decode_search_results,
    encode_kv_stream,
    encode_search_results,
)
from repro.wire.serializer import read_float, write_float
from tests.leftovers import NOTHING, left_behind
from tests.test_chaos_invariants import CHAOS, TOPO, platform_scenario

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)


def make_platform(tiers=None, register_solr=True, overload=None):
    topo = three_tier(SMALL)
    if tiers is None:
        deploy_boxes(topo)
    elif tiers:
        deploy_boxes(topo, tiers=tiers)
    platform = NetAggPlatform(topo, overload=overload)
    if register_solr:
        platform.register_app(
            "solr", TopKFunction(k=3),
            encode_search_results, decode_search_results,
        )
    return platform


def solr_partials(hosts=("host:1", "host:4", "host:8", "host:12")):
    return [
        (host, [SearchResult(i * 10 + j, float(i * 10 + j))
                for j in range(5)])
        for i, host in enumerate(hosts)
    ]


class TestRegistration:
    def test_app_registered_everywhere(self):
        platform = make_platform()
        assert platform.apps() == ["solr"]
        for info in platform.topology.all_boxes():
            assert platform.box_runtime(info.box_id).apps() == ["solr"]

    def test_duplicate_app_rejected(self):
        platform = make_platform()
        with pytest.raises(ValueError):
            platform.register_app("solr", TopKFunction(),
                                  encode_search_results,
                                  decode_search_results)

    def test_unknown_app_rejected(self):
        platform = make_platform()
        with pytest.raises(KeyError):
            platform.execute_request("ghost", "r", "host:0",
                                     solr_partials())


class TestOnlineRequests:
    def test_result_matches_centralised_merge(self):
        platform = make_platform()
        partials = solr_partials()
        outcome = platform.execute_request("solr", "r1", "host:0", partials)
        expected = TopKFunction(k=3).merge([p for _, p in partials])
        assert outcome.value == expected

    def test_empty_response_emulation(self):
        platform = make_platform()
        outcome = platform.execute_request("solr", "r1", "host:0",
                                           solr_partials())
        assert len(outcome.worker_responses) == 4
        assert sum(1 for _, v in outcome.worker_responses
                   if v is not None) == 1

    def test_boxes_participate(self):
        platform = make_platform()
        outcome = platform.execute_request("solr", "r1", "host:0",
                                           solr_partials())
        assert outcome.boxes_used
        assert outcome.bytes_into_boxes > 0

    def test_multiple_trees_choose_one_per_request(self):
        platform = make_platform()
        trees_seen = set()
        for i in range(8):
            outcome = platform.execute_request(
                "solr", f"r{i}", "host:0", solr_partials(), n_trees=2
            )
            assert len(outcome.trees_used) == 1
            trees_seen.add(outcome.trees_used[0])
        assert trees_seen == {0, 1}

    def test_no_boxes_direct_path_still_correct(self):
        platform = make_platform(tiers=())
        partials = solr_partials()
        outcome = platform.execute_request("solr", "r1", "host:0", partials)
        expected = TopKFunction(k=3).merge([p for _, p in partials])
        assert outcome.value == expected
        assert outcome.boxes_used == []

    def test_partial_deployment_correct(self):
        platform = make_platform(tiers=(CORE,))
        partials = solr_partials()
        outcome = platform.execute_request("solr", "r1", "host:0", partials)
        expected = TopKFunction(k=3).merge([p for _, p in partials])
        assert outcome.value == expected


class TestFailures:
    def test_failed_box_routed_around(self):
        platform = make_platform()
        partials = solr_partials()
        healthy = platform.execute_request("solr", "r0", "host:0", partials)
        for box_id in healthy.boxes_used:
            failing = make_platform()
            failing.fail_box(box_id)
            outcome = failing.execute_request("solr", "r0", "host:0",
                                              partials)
            assert outcome.value == healthy.value
            assert box_id not in outcome.boxes_used

    def test_all_boxes_failed_still_correct(self):
        platform = make_platform()
        for info in platform.topology.all_boxes():
            platform.fail_box(info.box_id)
        partials = solr_partials()
        outcome = platform.execute_request("solr", "r1", "host:0", partials)
        expected = TopKFunction(k=3).merge([p for _, p in partials])
        assert outcome.value == expected
        assert outcome.boxes_used == []

    def test_recover_box(self):
        platform = make_platform()
        box = platform.topology.all_boxes()[0].box_id
        platform.fail_box(box)
        assert box in platform.failed_boxes()
        platform.recover_box(box)
        assert box not in platform.failed_boxes()

    def test_recover_unknown_box_rejected(self):
        """Regression: a bogus id was accepted silently and, with
        breakers on, grew a breaker that ``states()`` then listed."""
        platform = make_platform(
            overload=OverloadConfig(breaker=True))
        with pytest.raises(KeyError, match="unknown box 'box:ghost'"):
            platform.recover_box("box:ghost")
        assert "box:ghost" not in platform.breakers.states()

    def test_unknown_box_rejected(self):
        platform = make_platform()
        with pytest.raises(KeyError):
            platform.fail_box("box:ghost")


class TestOffIsTheEmptySchedule:
    """``None`` is a value, not a mode: a bare platform and one handed
    the empty schedule and the default policies are the same platform."""

    @given(scenario=platform_scenario())
    @CHAOS
    def test_bare_and_explicit_defaults_agree(self, scenario):
        bare = NetAggPlatform(TOPO)
        explicit = NetAggPlatform(
            TOPO, faults=PlatformFaultInjector(FaultSchedule()),
            retry=RetryPolicy(), overload=OverloadConfig())
        for platform in (bare, explicit):
            platform.register_app("sum", SumFunction(), write_float,
                                  lambda b: read_float(b)[0])

        def agree(call):
            ours, theirs = call(bare), call(explicit)
            for name in ("value", "boxes_used", "trees_used",
                         "bytes_into_boxes", "shim_events", "completeness"):
                assert getattr(ours, name) == getattr(theirs, name), name
            assert bare.clock == explicit.clock > 0.0

        for i, (master, workers, values, _, _) in enumerate(scenario[-1]):
            hosts = [f"host:{h}" for h in workers]
            agree(lambda p: p.execute_request(
                "sum", f"r{i}", f"host:{master}", list(zip(hosts, values))))
            keyed = [(host, [(f"k{i}:{w}", value), (f"k{w}", value + w)])
                     for w, (host, value) in enumerate(zip(hosts, values))]
            agree(lambda p: p.execute_batch(
                "sum", f"job{i}", f"host:{master}", keyed, n_trees=2,
                rebundle=sum))


class TestBatchJobs:
    def make_hadoop_platform(self):
        platform = make_platform(register_solr=False)
        platform.register_app(
            "hadoop", CombinerFunction(),
            encode_kv_stream, decode_kv_stream,
        )
        return platform

    def test_batch_wordcount_matches_flat(self):
        platform = self.make_hadoop_platform()
        worker_items = [
            ("host:1", [("apple", KeyValue("apple", 1)),
                        ("pear", KeyValue("pear", 2))]),
            ("host:4", [("apple", KeyValue("apple", 3))]),
            ("host:8", [("plum", KeyValue("plum", 5))]),
        ]
        outcome = platform.execute_batch(
            "hadoop", "job1", "host:0", worker_items, n_trees=2,
        )
        assert outcome.value == [
            KeyValue("apple", 4), KeyValue("pear", 2), KeyValue("plum", 5),
        ]
        assert sorted(outcome.trees_used) == [0, 1]

    def test_batch_uses_both_trees_boxes(self):
        platform = self.make_hadoop_platform()
        worker_items = [
            ("host:1", [(f"k{i}", KeyValue(f"k{i}", i)) for i in range(20)]),
            ("host:12", [(f"k{i}", KeyValue(f"k{i}", 1)) for i in range(20)]),
        ]
        outcome = platform.execute_batch(
            "hadoop", "job2", "host:0", worker_items, n_trees=2,
        )
        assert len(outcome.value) == 20
        assert outcome.bytes_into_boxes > 0


class TestDuplicateIdsRefusedBeforeAdmission:
    """Both entry points refuse a re-used id before ``_admit`` runs."""

    @staticmethod
    def gated_platform():
        from repro.core.admission import AdmissionPolicy
        from repro.faults import FaultSchedule, PlatformFaultInjector
        topo = three_tier(SMALL)
        deploy_boxes(topo)
        platform = NetAggPlatform(
            topo, faults=PlatformFaultInjector(FaultSchedule(), topo=topo),
            overload=OverloadConfig(admission=AdmissionPolicy(rate=0.001,
                                                              burst=2.0)))
        platform.register_app("solr", TopKFunction(k=3),
                              encode_search_results, decode_search_results)
        platform.register_app("hadoop", CombinerFunction(),
                              encode_kv_stream, decode_kv_stream)
        return platform

    def test_online(self):
        platform = self.gated_platform()
        platform.execute_request("solr", "r", "host:0", solr_partials())
        clock = platform.clock
        assert clock > 0 and platform.admission.admitted == 1
        with pytest.raises(ValueError, match="duplicate request id 'r'"):
            platform.execute_request("solr", "r", "host:0", solr_partials())
        assert platform.clock == clock
        assert platform.admission.admitted == 1
        # The second (and last) token is still there for a fresh id.
        platform.execute_request("solr", "r2", "host:0", solr_partials())
        assert platform.admission.admitted == 2

    def test_batch(self):
        platform = self.gated_platform()
        items = [("host:1", [("apple", KeyValue("apple", 1))]),
                 ("host:12", [("pear", KeyValue("pear", 2))])]
        platform.execute_batch("hadoop", "job", "host:0", items, n_trees=2)
        clock = platform.clock
        assert platform.admission.admitted == 1
        with pytest.raises(ValueError,
                           match="duplicate request id 'job:t0'"):
            platform.execute_batch("hadoop", "job", "host:0", items,
                                   n_trees=2)
        assert platform.clock == clock
        assert platform.admission.admitted == 1


class TestRequestsLeaveNothingBehind:
    """Box and shim state ends with the request, however it ends."""

    HOSTS = [f"host:{h}" for h in range(1, 9)]

    def gradient_platform(self):
        platform = make_platform(register_solr=False)
        platform.register_app("grad", VectorSumFunction(),
                              encode_vector, decode_vector)
        return platform

    def ragged_round(self, platform, request_id):
        """Eight gradients, the last one short: dies in a box's merge."""
        rows = [[128.0] * 4 for _ in self.HOSTS]
        rows[-1] = [128.0] * 3
        with pytest.raises(ValueError, match="gradient length mismatch"):
            platform.execute_request("grad", request_id, "host:0",
                                     list(zip(self.HOSTS, rows)))

    def test_a_request_that_raises_mid_tree_leaves_nothing(self):
        platform = self.gradient_platform()
        for i in range(5):
            self.ragged_round(platform, f"bad-{i}")
            assert left_behind(platform) == NOTHING

    def test_discarded_partials_are_counted(self):
        """``platform.abandoned_partials``: zero for every request that
        completes, the partials still buffered for one that does not."""
        platform = self.gradient_platform()
        abandoned = METRICS.counter("platform.abandoned_partials")
        start = abandoned.value
        platform.execute_request(
            "grad", "good", "host:0",
            [(host, [1.0] * 4) for host in self.HOSTS])
        assert abandoned.value == start
        self.ragged_round(platform, "bad-0")
        per_round = abandoned.value - start
        assert per_round > 0
        self.ragged_round(platform, "bad-1")
        assert abandoned.value == start + 2 * per_round

    def test_failed_requests_do_not_contaminate_later_ones(self):
        """A dead request's partials used to be flushed into whichever
        request came next."""
        platform = self.gradient_platform()
        for i in range(6):
            self.ragged_round(platform, f"bad-{i}")
        values = []
        for i in range(6):
            try:
                values.append(platform.execute_request(
                    "grad", f"good-{i}", "host:0",
                    [(host, [i + 1.0] * 4) for host in self.HOSTS]).value)
            except ValueError as dead_requests_error:
                values.append(str(dead_requests_error))
        assert values == [[8.0 * (i + 1)] * 4 for i in range(6)]
        assert {beat.state for beat in platform.health_report().values()} \
            == {HEALTHY}
        assert left_behind(platform) == NOTHING

    def test_id_completed_on_one_master_is_accepted_on_another(self):
        """Duplicate refusal is per master; box state used to be keyed
        on the id alone, so the second master met the first's corpse."""
        platform = make_platform()
        for master, hosts in (("host:0", ("host:1", "host:4", "host:8")),
                              ("host:15", ("host:2", "host:5", "host:9",
                                           "host:13"))):
            partials = solr_partials(hosts)
            outcome = platform.execute_request("solr", "same", master,
                                               partials)
            assert outcome.value == \
                TopKFunction(k=3).merge([p for _, p in partials])

    def test_batch_job_ids_retire_like_online_ids(self):
        class PoisonRejectingCombiner(CombinerFunction):
            def reduce(self, key, values):
                if key == "poison":
                    raise ValueError("poisoned key")
                return sum(values)

        platform = make_platform(register_solr=False)
        platform.register_app("hadoop", PoisonRejectingCombiner(),
                              encode_kv_stream, decode_kv_stream)

        def items(hosts, *extra):
            keys = [f"k{i}" for i in range(12)] + list(extra)
            return [(host, [(k, KeyValue(k, w + 1)) for k in keys])
                    for w, host in enumerate(hosts)]

        # A share that dies mid-tree is retired like one that completes.
        with pytest.raises(ValueError, match="poisoned key"):
            platform.execute_batch(
                "hadoop", "bad", "host:0",
                items(["host:1", "host:4"], "poison"), n_trees=2)
        assert left_behind(platform) == NOTHING
        # ``job:t0``/``job:t1`` stay refused where they ran, and are
        # free again on a master that never saw them.
        platform.execute_batch("hadoop", "job", "host:0",
                               items(["host:1", "host:4"]), n_trees=2)
        with pytest.raises(ValueError,
                           match="duplicate request id 'job:t0'"):
            platform.execute_batch("hadoop", "job", "host:0",
                                   items(["host:1", "host:4"]), n_trees=2)
        outcome = platform.execute_batch(
            "hadoop", "job", "host:15",
            items(["host:2", "host:5", "host:9"]), n_trees=2)
        assert outcome.value == \
            [KeyValue(f"k{i}", 6) for i in sorted(range(12), key=str)]
        assert left_behind(platform) == NOTHING


class TestScalarApp:
    def test_sum_through_platform(self):
        platform = make_platform(register_solr=False)
        platform.register_app(
            "sum", SumFunction(),
            write_float, lambda b: read_float(b)[0],
        )
        partials = [(f"host:{h}", float(h)) for h in (1, 4, 8, 12)]
        outcome = platform.execute_request("sum", "r", "host:0", partials)
        assert outcome.value == pytest.approx(25.0)

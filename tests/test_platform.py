"""Integration tests: the NetAgg platform executing real requests."""

import pytest

from repro.aggbox.functions import SumFunction, TopKFunction
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform
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

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)


def make_platform(tiers=None, register_solr=True):
    topo = three_tier(SMALL)
    if tiers is None:
        deploy_boxes(topo)
    elif tiers:
        deploy_boxes(topo, tiers=tiers)
    platform = NetAggPlatform(topo)
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

    def test_unknown_box_rejected(self):
        platform = make_platform()
        with pytest.raises(KeyError):
            platform.fail_box("box:ghost")


class TestBatchJobs:
    def make_hadoop_platform(self):
        from repro.aggbox.functions import CombinerFunction

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
        from repro.aggbox.functions import CombinerFunction
        from repro.core.admission import AdmissionPolicy
        from repro.core.overload import OverloadConfig
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

"""Tests for the worker and master shim layers."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggbox.functions import SumFunction
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform
from repro.core import shim as shim_module
from repro.core.shim import RETIRED_ID_WINDOW, MasterShim, split_by_key
from repro.core.tree import TreeBuilder
from repro.topology import ThreeTierParams, three_tier
from repro.wire.serializer import write_float
from tests.codecs import read_float

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
WORKERS = ["host:4", "host:8", "host:12"]


def make_trees(n_trees=2, with_boxes=True):
    topo = three_tier(SMALL)
    if with_boxes:
        deploy_boxes(topo)
    return TreeBuilder(topo).build_many("req", "host:0", WORKERS, n_trees)


class TestWorkerShim:
    """The worker shim's two decisions: which tree a key goes to
    (:func:`split_by_key`), and where a partial lands when no box is on
    its path (the master, with no ladder event)."""

    def test_redirect_deterministic(self):
        items = [("key-1", 1)]
        assert split_by_key(items, 2) == split_by_key(items, 2)

    def test_redirect_spreads_over_trees(self):
        parts = split_by_key([(f"key-{i}", i) for i in range(32)], 2)
        assert all(parts[index] for index in (0, 1))

    @staticmethod
    def sum_platform(with_boxes=True):
        topo = three_tier(SMALL)
        if with_boxes:
            deploy_boxes(topo)
        platform = NetAggPlatform(topo)
        platform.register_app("sum", SumFunction(), write_float,
                              lambda b: read_float(b)[0])
        return platform

    def test_redirect_without_boxes_is_passthrough(self):
        platform = self.sum_platform(with_boxes=False)
        hosts = [f"host:{h}" for h in (4, 8, 12)]
        outcome = platform.execute_request(
            "sum", "r1", "host:0", [(h, 1.0) for h in hosts])
        assert outcome.value == 3.0
        assert outcome.boxes_used == [] and outcome.bytes_into_boxes == 0
        assert outcome.shim_events == []

    def test_split_partitions_all_items(self):
        items = [(f"k{i}", i) for i in range(50)]
        parts = split_by_key(items, 3)
        assert sorted(v for part in parts.values() for v in part) == \
            list(range(50))
        assert len(parts) == 3

    def test_split_same_key_same_tree(self):
        parts = split_by_key([("k", 1), ("k", 2)], 3)
        non_empty = [i for i, part in parts.items() if part]
        assert len(non_empty) == 1

    def test_worker_must_be_in_trees(self):
        """Every worker has an entry (a box or None) in every tree, so
        the ladder walk can start from any worker index."""
        platform = self.sum_platform()
        hosts = [f"host:{h}" for h in (1, 4, 8, 12)]
        for tree in platform.build_trees("r1", "host:0", hosts, 3):
            assert sorted(tree.worker_entry) == list(range(len(hosts)))

    def test_requires_trees(self):
        platform = self.sum_platform()
        with pytest.raises(ValueError, match="n_trees"):
            platform.execute_batch("sum", "job", "host:0",
                                   [("host:4", [("k", 1.0)])], n_trees=0,
                                   rebundle=sum)


class TestMasterShim:
    def test_expected_counts_exclude_direct_workers(self):
        tree = make_trees(n_trees=1, with_boxes=False)[0]
        shim = MasterShim("host:0")
        expected = shim.intercept_request("r1", tree)
        assert expected == 0  # everything direct, boxes expect nothing
        assert shim.is_complete("r1")

    def test_expected_counts_with_boxes(self):
        tree = make_trees(n_trees=1)[0]
        shim = MasterShim("host:0")
        expected = shim.intercept_request("r1", tree)
        assert expected == len(WORKERS)

    def test_duplicate_request_rejected(self):
        tree = make_trees()[0]
        shim = MasterShim("host:0")
        shim.intercept_request("r1", tree)
        with pytest.raises(ValueError):
            shim.intercept_request("r1", tree)

    def test_completion_requires_all_trees(self):
        """A request runs on one tree (a batch job is one request per
        tree): it is complete once that tree's aggregate arrived."""
        trees = make_trees(n_trees=2)
        shim = MasterShim("host:0")
        for index, tree in enumerate(trees):
            shim.intercept_request(f"r1:t{index}", tree)
        shim.deliver_aggregate("r1:t0", [1])
        assert shim.is_complete("r1:t0")
        assert not shim.is_complete("r1:t1")
        assert shim.pending_requests() == ["r1:t1"]

    def test_duplicate_aggregate_rejected(self):
        tree = make_trees(n_trees=1)[0]
        shim = MasterShim("host:0")
        shim.intercept_request("r1", tree)
        shim.deliver_aggregate("r1", [1])
        with pytest.raises(ValueError):
            shim.deliver_aggregate("r1", [1])

    def test_empty_result_emulation(self):
        """All data on worker 0; others get empty responses (§3.2.2)."""
        tree = make_trees(n_trees=1)[0]
        shim = MasterShim("host:0")
        shim.intercept_request("r1", tree)
        shim.deliver_aggregate("r1", [42])
        responses = shim.emulate_worker_responses("r1")
        assert responses[0] == (0, [42])
        assert all(value is None for _, value in responses[1:])
        assert len(responses) == len(WORKERS)

    def test_multiple_trees_need_merge(self):
        """The tree's aggregate and a partial that bypassed the boxes
        are two parts: the master merges them, and needs a merge to."""
        tree = make_trees(n_trees=1)[0]
        shim = MasterShim("host:0")
        shim.intercept_request("r1", tree)
        shim.deliver_aggregate("r1", [1])
        shim.deliver_direct("r1", 2, [2])
        with pytest.raises(ValueError):
            shim.emulate_worker_responses("r1")
        responses = shim.emulate_worker_responses(
            "r1", merge=lambda parts: [x for p in parts for x in p]
        )
        assert responses[0][1] == [1, 2]

    def test_incomplete_request_raises(self):
        tree = make_trees(n_trees=1)[0]
        shim = MasterShim("host:0")
        shim.intercept_request("r1", tree)
        with pytest.raises(RuntimeError):
            shim.emulate_worker_responses("r1")
        assert shim.pending_requests() == ["r1"]

    def test_unknown_request_raises(self):
        shim = MasterShim("host:0")
        with pytest.raises(KeyError):
            shim.is_complete("ghost")


class TestRetirement:
    """``retire`` ends a request: its entry (and the aggregate it
    pins) goes, its id stays refused for one window of newer ids."""

    TREE = make_trees(n_trees=1)[0]

    def test_retire_drops_the_entry_and_keeps_the_id_refused(self):
        shim = MasterShim("host:0")
        shim.intercept_request("r1", self.TREE)
        shim.deliver_aggregate("r1", [42])
        shim.retire("r1")
        with pytest.raises(KeyError):
            shim.is_complete("r1")
        with pytest.raises(ValueError, match="duplicate request id 'r1'"):
            shim.refuse_duplicate("r1")
        with pytest.raises(ValueError, match="duplicate request id 'r1'"):
            shim.intercept_request("r1", self.TREE)

    def test_failed_requests_retire_too(self):
        shim = MasterShim("host:0")
        shim.intercept_request("r1", self.TREE)
        assert shim.pending_requests() == ["r1"]
        shim.retire("r1")
        assert shim.pending_requests() == []

    def test_only_intercepted_requests_retire(self):
        with pytest.raises(KeyError):
            MasterShim("host:0").retire("ghost")

    def test_the_window_is_as_wide_as_its_constant(self):
        shim = MasterShim("host:0")
        for n in range(RETIRED_ID_WINDOW + 1):
            shim.intercept_request(f"r{n}", self.TREE)
            shim.retire(f"r{n}")
        assert len(shim._retired) == RETIRED_ID_WINDOW
        shim.refuse_duplicate("r0")  # evicted: free again
        with pytest.raises(ValueError):
            shim.refuse_duplicate("r1")

    @given(window=st.integers(1, 6),
           script=st.lists(st.integers(0, 9), max_size=60))
    def test_an_id_is_refused_for_exactly_one_window(self, window, script):
        """Against a list model: an id is refused while it is among the
        last ``window`` retired, accepted once that many newer ids have
        retired, and the shim never retains more than ``window``."""
        with mock.patch.object(shim_module, "RETIRED_ID_WINDOW", window):
            shim = MasterShim("host:0")
            retired = []  # oldest first
            for n in script:
                request_id = f"r{n}"
                if request_id in retired[-window:]:
                    with pytest.raises(ValueError, match="duplicate"):
                        shim.intercept_request(request_id, self.TREE)
                else:
                    shim.intercept_request(request_id, self.TREE)
                    shim.retire(request_id)
                    retired.append(request_id)
                assert list(shim._retired) == retired[-window:]
                assert shim.pending_requests() == []

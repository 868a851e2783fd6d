"""Tests for worker and master shim layers."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggregation import deploy_boxes
from repro.core import shim as shim_module
from repro.core.shim import RETIRED_ID_WINDOW, MasterShim, WorkerShim
from repro.core.tree import TreeBuilder
from repro.topology import ThreeTierParams, three_tier

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
    def test_redirect_deterministic(self):
        trees = make_trees()
        shim = WorkerShim("host:4", 0, trees)
        assert shim.redirect_for("key-1") == shim.redirect_for("key-1")

    def test_redirect_spreads_over_trees(self):
        trees = make_trees(n_trees=2)
        shim = WorkerShim("host:4", 0, trees)
        indices = {shim.redirect_for(f"key-{i}").tree_index
                   for i in range(32)}
        assert indices == {0, 1}

    def test_redirect_without_boxes_is_passthrough(self):
        trees = make_trees(with_boxes=False)
        shim = WorkerShim("host:4", 0, trees)
        assert shim.redirect_for("key").box_id is None

    def test_split_partitions_all_items(self):
        trees = make_trees(n_trees=3)
        shim = WorkerShim("host:4", 0, trees)
        items = [(f"k{i}", i) for i in range(50)]
        parts = shim.split(items)
        assert sorted(v for part in parts.values() for v in part) == \
            list(range(50))
        assert len(parts) == 3

    def test_split_same_key_same_tree(self):
        trees = make_trees(n_trees=3)
        shim = WorkerShim("host:4", 0, trees)
        parts = shim.split([("k", 1), ("k", 2)])
        non_empty = [i for i, part in parts.items() if part]
        assert len(non_empty) == 1

    def test_requires_trees(self):
        with pytest.raises(ValueError):
            WorkerShim("host:4", 0, [])

    def test_worker_must_be_in_trees(self):
        trees = make_trees()
        with pytest.raises(ValueError):
            WorkerShim("host:4", 99, trees)


class TestMasterShim:
    def test_expected_counts_exclude_direct_workers(self):
        trees = make_trees(n_trees=1, with_boxes=False)
        shim = MasterShim("host:0")
        expected = shim.intercept_request("r1", trees)
        assert expected == {0: 0}  # everything direct, boxes expect nothing

    def test_expected_counts_with_boxes(self):
        trees = make_trees(n_trees=1)
        shim = MasterShim("host:0")
        expected = shim.intercept_request("r1", trees)
        assert expected == {0: len(WORKERS)}

    def test_duplicate_request_rejected(self):
        trees = make_trees()
        shim = MasterShim("host:0")
        shim.intercept_request("r1", trees)
        with pytest.raises(ValueError):
            shim.intercept_request("r1", trees)

    def test_completion_requires_all_trees(self):
        trees = make_trees(n_trees=2)
        shim = MasterShim("host:0")
        shim.intercept_request("r1", trees)
        shim.deliver_aggregate("r1", 0, [1])
        assert not shim.is_complete("r1")
        shim.deliver_aggregate("r1", 1, [2])
        assert shim.is_complete("r1")

    def test_duplicate_aggregate_rejected(self):
        trees = make_trees(n_trees=1)
        shim = MasterShim("host:0")
        shim.intercept_request("r1", trees)
        shim.deliver_aggregate("r1", 0, [1])
        with pytest.raises(ValueError):
            shim.deliver_aggregate("r1", 0, [1])

    def test_empty_result_emulation(self):
        """All data on worker 0; others get empty responses (§3.2.2)."""
        trees = make_trees(n_trees=1)
        shim = MasterShim("host:0")
        shim.intercept_request("r1", trees)
        shim.deliver_aggregate("r1", 0, [42])
        responses = shim.emulate_worker_responses("r1")
        assert responses[0] == (0, [42])
        assert all(value is None for _, value in responses[1:])
        assert len(responses) == len(WORKERS)

    def test_multiple_trees_need_merge(self):
        trees = make_trees(n_trees=2)
        shim = MasterShim("host:0")
        shim.intercept_request("r1", trees)
        shim.deliver_aggregate("r1", 0, [1])
        shim.deliver_aggregate("r1", 1, [2])
        with pytest.raises(ValueError):
            shim.emulate_worker_responses("r1")
        responses = shim.emulate_worker_responses(
            "r1", merge=lambda parts: [x for p in parts for x in p]
        )
        assert responses[0][1] == [1, 2]

    def test_incomplete_request_raises(self):
        trees = make_trees(n_trees=1)
        shim = MasterShim("host:0")
        shim.intercept_request("r1", trees)
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

    TREES = make_trees(n_trees=1)

    def test_retire_drops_the_entry_and_keeps_the_id_refused(self):
        shim = MasterShim("host:0")
        shim.intercept_request("r1", self.TREES)
        shim.deliver_aggregate("r1", 0, [42])
        shim.retire("r1")
        with pytest.raises(KeyError):
            shim.is_complete("r1")
        with pytest.raises(ValueError, match="duplicate request id 'r1'"):
            shim.refuse_duplicate("r1")
        with pytest.raises(ValueError, match="duplicate request id 'r1'"):
            shim.intercept_request("r1", self.TREES)

    def test_failed_requests_retire_too(self):
        shim = MasterShim("host:0")
        shim.intercept_request("r1", self.TREES)
        assert shim.pending_requests() == ["r1"]
        shim.retire("r1")
        assert shim.pending_requests() == []

    def test_only_intercepted_requests_retire(self):
        with pytest.raises(KeyError):
            MasterShim("host:0").retire("ghost")

    def test_the_window_is_as_wide_as_its_constant(self):
        shim = MasterShim("host:0")
        for n in range(RETIRED_ID_WINDOW + 1):
            shim.intercept_request(f"r{n}", self.TREES)
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
                        shim.intercept_request(request_id, self.TREES)
                else:
                    shim.intercept_request(request_id, self.TREES)
                    shim.retire(request_id)
                    retired.append(request_id)
                assert list(shim._retired) == retired[-window:]
                assert shim.pending_requests() == []

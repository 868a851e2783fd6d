"""Tests for the local aggregation tree (functional + performance)."""

import pytest

from repro.aggbox import localtree
from repro.aggbox.functions import SumFunction, TopKFunction
from repro.aggbox.localtree import (
    INGEST_RATE,
    LocalTreeModel,
    TreeModelParams,
    tree_aggregate,
)
from repro.units import to_gbps
from repro.wire.records import SearchResult


class TestTreeAggregate:
    def test_empty_returns_identity(self):
        assert tree_aggregate(SumFunction(), []) == 0.0

    def test_single_item_passes_through_function(self):
        fn = TopKFunction(k=1)
        out = tree_aggregate(fn, [[SearchResult(1, 2.0),
                                   SearchResult(2, 5.0)]])
        assert [r.doc_id for r in out] == [2]

    def test_matches_flat_merge(self):
        fn = SumFunction()
        items = [float(i) for i in range(17)]
        assert tree_aggregate(fn, items) == fn.merge(items)

    def test_fan_in_validation(self):
        with pytest.raises(ValueError):
            tree_aggregate(SumFunction(), [1.0], fan_in=1)

    def test_wide_fan_in(self):
        fn = SumFunction()
        items = [1.0] * 100
        assert tree_aggregate(fn, items, fan_in=8) == 100.0


class TestTreeModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeModelParams(leaves=0)
        with pytest.raises(ValueError):
            TreeModelParams(threads=0)
        with pytest.raises(ValueError):
            TreeModelParams(alpha=0.0)
        with pytest.raises(ValueError):
            TreeModelParams(chunk_bytes=-1.0)


def n_tasks(model):
    """Merge tasks of the model's tree (its internal nodes)."""
    return sum(1 for node in model._nodes if node.children)


class TestTreeModelStructure:
    def test_binary_tree_task_count(self):
        model = LocalTreeModel(TreeModelParams(leaves=8))
        assert n_tasks(model) == 7

    def test_single_leaf_no_tasks(self):
        model = LocalTreeModel(TreeModelParams(leaves=1))
        assert n_tasks(model) == 0

    def test_odd_leaves(self):
        model = LocalTreeModel(TreeModelParams(leaves=5))
        assert n_tasks(model) == 4  # 5 -> 3 -> 2 -> 1


class TestTreeModelBehaviour:
    def test_all_input_processed(self):
        params = TreeModelParams(leaves=4, threads=4)
        result = LocalTreeModel(params).run()
        chunks = round(params.bytes_per_leaf / params.chunk_bytes)
        assert result.input_bytes == pytest.approx(
            chunks * params.chunk_bytes * 4
        )
        assert result.tasks_executed == 3 * chunks

    def test_run_publishes_its_task_count_once(self):
        """The bench ledger's view of Fig. 15: one counter bump per run,
        equal to the merges the run executed."""
        from repro.obs import METRICS

        counter = METRICS.counter("aggbox.localtree.tasks")
        before = counter.value
        result = LocalTreeModel(TreeModelParams(leaves=4, threads=4)).run()
        assert counter.value - before == result.tasks_executed > 0

    def test_more_threads_never_slower(self):
        slow = LocalTreeModel(TreeModelParams(leaves=32, threads=4)).run()
        fast = LocalTreeModel(TreeModelParams(leaves=32, threads=16)).run()
        assert fast.throughput >= slow.throughput * 0.99

    def test_more_leaves_more_throughput_until_saturation(self):
        small = LocalTreeModel(TreeModelParams(leaves=2, threads=16)).run()
        large = LocalTreeModel(TreeModelParams(leaves=32, threads=16)).run()
        assert large.throughput > small.throughput * 2

    def test_throughput_bounded_by_ingest(self):
        params = TreeModelParams(leaves=64, threads=32)
        result = LocalTreeModel(params).run()
        assert result.throughput <= INGEST_RATE * 1.01

    def test_peak_concurrency_bounded_by_threads(self):
        params = TreeModelParams(leaves=64, threads=8)
        result = LocalTreeModel(params).run()
        assert result.peak_concurrency <= 8

    def test_expensive_function_lowers_throughput(self, monkeypatch):
        cheap = LocalTreeModel(TreeModelParams(leaves=16, threads=8)).run()
        # A function eight times as costly: every merge runs at an eighth
        # of the core rate.
        monkeypatch.setattr(localtree, "DEFAULT_CORE_RATE",
                            localtree.DEFAULT_CORE_RATE / 8)
        costly = LocalTreeModel(TreeModelParams(leaves=16, threads=8)).run()
        assert costly.throughput < cheap.throughput / 4

    def test_fig15_shape(self):
        """Throughput rises with leaves; bigger pools raise the plateau."""
        def tp(leaves, threads):
            return LocalTreeModel(TreeModelParams(
                leaves=leaves, threads=threads)).run().throughput

        assert tp(4, 8) < tp(16, 8)
        assert tp(64, 16) > tp(64, 8)
        # With a big pool the tree saturates near the 10G ingest link.
        assert to_gbps(tp(64, 32)) > 8.0

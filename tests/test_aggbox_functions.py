"""Tests for the aggregation functions (associativity, sizes, costs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggbox.functions import (
    CATEGORISE_CPU_FACTOR,
    SAMPLE_CPU_FACTOR,
    CombinerFunction,
    SumFunction,
    TopKFunction,
)
from repro.aggbox.localtree import tree_aggregate
from repro.wire.records import KeyValue, SearchResult


def results_from(scores):
    return [SearchResult(i, float(s)) for i, s in enumerate(scores)]


class TestTopK:
    def test_merge_keeps_best(self):
        fn = TopKFunction(k=2)
        merged = fn.merge([results_from([1, 5]), results_from([3])])
        assert [r.score for r in merged] == [5.0, 3.0]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKFunction(k=0)

    def test_identity_is_empty(self):
        assert TopKFunction(k=3).merge([]) == []

    def test_deterministic_tie_break(self):
        fn = TopKFunction(k=2)
        a = [SearchResult(1, 1.0), SearchResult(2, 1.0)]
        merged = fn.merge([a])
        assert [r.doc_id for r in merged] == [1, 2]

    @given(st.lists(st.lists(st.tuples(st.integers(0, 6),
                                       st.sampled_from((0.5, 1.0, 2.0)),
                                       st.sampled_from(("", "a", "b"))),
                             max_size=12), max_size=5),
           st.integers(1, 12))
    @settings(max_examples=300)
    def test_merge_is_the_heap_merge_it_replaced(self, partials, k):
        """The sort keeps exactly what ``heapq.nlargest`` kept, in the
        same order -- ties on score and doc id (records differing only
        in their snippet) included."""
        import heapq

        items = [[SearchResult(*r) for r in part] for part in partials]
        want = heapq.nlargest(k, [r for part in items for r in part],
                              key=lambda r: (r.score, -r.doc_id))
        assert TopKFunction(k=k).merge(items) == want

    @given(st.lists(st.lists(st.floats(0, 100), max_size=8), max_size=6),
           st.integers(1, 5))
    @settings(max_examples=100)
    def test_tree_merge_equals_flat_merge(self, partials, k):
        fn = TopKFunction(k=k)
        items = [results_from(scores) for scores in partials]
        flat = fn.merge(items)
        tree = tree_aggregate(fn, items)
        assert [(r.doc_id, r.score) for r in flat] == \
            [(r.doc_id, r.score) for r in tree]


class TestCombiner:
    def test_merge_sums_per_key(self):
        fn = CombinerFunction()
        merged = fn.merge([
            [KeyValue("a", 1), KeyValue("b", 2)],
            [KeyValue("a", 3)],
        ])
        assert merged == [KeyValue("a", 4), KeyValue("b", 2)]

    def test_merge_sorted_by_key(self):
        fn = CombinerFunction()
        merged = fn.merge([[KeyValue("z", 1), KeyValue("a", 1)]])
        assert [p.key for p in merged] == ["a", "z"]

    @given(st.lists(
        st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 50)),
                 max_size=10),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=100)
    def test_tree_merge_equals_flat_merge(self, raw):
        fn = CombinerFunction()
        items = [[KeyValue(k, v) for k, v in part] for part in raw]
        assert tree_aggregate(fn, items) == fn.merge(items)

    def test_custom_reduce(self):
        class MaxCombiner(CombinerFunction):
            def reduce(self, key, values):
                return max(values)

        merged = MaxCombiner().merge([[KeyValue("a", 1)], [KeyValue("a", 9)]])
        assert merged == [KeyValue("a", 9)]


class TestSample:
    # Only the cost factor of the paper's ``sample`` function is left:
    # Fig. 21 feeds it to the emulated box.
    def test_cheap_cpu_factor(self):
        assert SAMPLE_CPU_FACTOR < 1.0


class TestCategorise:
    # Likewise ``categorise``, for Figs. 20 and 21.
    def test_expensive_cpu_factor(self):
        assert CATEGORISE_CPU_FACTOR > 5.0


class TestScalars:
    def test_sum(self):
        assert SumFunction().merge([1.0, 2.0, 3.5]) == 6.5

    def test_cpu_seconds_scales_with_bytes(self):
        fn = SumFunction()
        assert fn.cpu_seconds(2000.0) == pytest.approx(
            2 * fn.cpu_seconds(1000.0)
        )

    def test_cpu_seconds_negative_rejected(self):
        with pytest.raises(ValueError):
            SumFunction().cpu_seconds(-1.0)

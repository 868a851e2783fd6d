"""Tests for the aggregation functions (associativity, sizes, costs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggbox.functions import (
    CategoriseFunction,
    CombinerFunction,
    MaxFunction,
    SampleFunction,
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
        assert TopKFunction(k=3).identity() == []

    def test_deterministic_tie_break(self):
        fn = TopKFunction(k=2)
        a = [SearchResult(1, 1.0), SearchResult(2, 1.0)]
        merged = fn.merge([a])
        assert [r.doc_id for r in merged] == [1, 2]

    def test_output_bytes_bounded_by_one_partial(self):
        fn = TopKFunction(k=5)
        assert fn.output_bytes([100.0, 80.0, 120.0]) == 120.0

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

    def test_output_bytes_dictionary_bound(self):
        fn = CombinerFunction(alpha=0.1, total_bytes=1000.0)
        assert fn.output_bytes([400.0, 400.0]) == pytest.approx(100.0)
        assert fn.output_bytes([30.0]) == pytest.approx(30.0)

    def test_output_bytes_without_total(self):
        fn = CombinerFunction(alpha=0.2)
        assert fn.output_bytes([100.0]) == pytest.approx(20.0)

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
    def test_output_ratio_respected(self):
        fn = SampleFunction(alpha=0.1)
        merged = fn.merge([list(range(50)), list(range(50))])
        assert len(merged) == pytest.approx(10, abs=1)

    def test_empty(self):
        assert SampleFunction(alpha=0.5).merge([]) == []

    def test_output_bytes(self):
        assert SampleFunction(alpha=0.25).output_bytes([100, 100]) == 50.0

    def test_cheap_cpu_factor(self):
        assert SampleFunction().cpu_factor < 1.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SampleFunction(alpha=0.0)


class TestCategorise:
    def test_classify_majority(self):
        fn = CategoriseFunction()
        assert fn.classify("science science history") == "science"

    def test_merge_groups_by_category(self):
        fn = CategoriseFunction(k=1)
        merged = fn.merge([
            [("all about science science", 1.0, "")],
            [("history history text", 2.0, "")],
        ])
        categories = {c for _, _, c in merged}
        assert categories == {"science", "history"}

    def test_topk_per_category(self):
        fn = CategoriseFunction(k=1)
        merged = fn.merge([
            [("science one science", 1.0, "science"),
             ("science two science", 5.0, "science")],
        ])
        assert len(merged) == 1
        assert merged[0][1] == 5.0

    def test_expensive_cpu_factor(self):
        assert CategoriseFunction.cpu_factor > 5.0

    def test_output_bytes_bounded(self):
        fn = CategoriseFunction(k=2)
        bound = fn.output_bytes([1e9])
        assert bound < 1e9


class TestScalars:
    def test_sum(self):
        assert SumFunction().merge([1.0, 2.0, 3.5]) == 6.5

    def test_max(self):
        assert MaxFunction().merge([1.0, 9.0, 3.0]) == 9.0

    def test_max_identity(self):
        assert MaxFunction().identity() == float("-inf")

    def test_cpu_seconds_scales_with_bytes(self):
        fn = SumFunction()
        assert fn.cpu_seconds(2000.0) == pytest.approx(
            2 * fn.cpu_seconds(1000.0)
        )

    def test_cpu_seconds_negative_rejected(self):
        with pytest.raises(ValueError):
            SumFunction().cpu_seconds(-1.0)

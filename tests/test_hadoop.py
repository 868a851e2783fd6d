"""Tests for the mini map/reduce framework and its benchmarks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hadoop import (
    MapReduceEngine,
    adpredictor_job,
    generate_adpredictor_logs,
    generate_graph,
    generate_terasort_records,
    generate_text,
    pagerank_job,
    terasort_job,
    uservisits_job,
    wordcount_job,
)
from repro.apps.hadoop import engine as engine_module
from repro.apps.hadoop.benchmarks import pack_clicks
from repro.apps.hadoop.job import Counters


def unpack_clicks(packed):
    """Inverse of ``pack_clicks``: clicks in the high 32 bits."""
    return packed >> 32, packed & ((1 << 32) - 1)


def chop(data, n=4):
    size = max(1, len(data) // n)
    chunks = [data[i:i + size] for i in range(0, len(data), size)]
    return chunks


class TestEngineBasics:
    def test_wordcount_counts_correctly(self):
        engine = MapReduceEngine()
        splits = [["a b a"], ["b c"]]
        result, _ = engine.run(wordcount_job(), splits)
        assert result == {"a": 2, "b": 2, "c": 1}

    def test_combiner_does_not_change_result(self):
        engine = MapReduceEngine()
        text = generate_text(100, seed=3)
        with_combiner, _ = engine.run(wordcount_job(), chop(text))
        without, _ = engine.run(wordcount_job(), chop(text),
                                use_combiner=False)
        assert with_combiner == without

    def test_on_path_levels_do_not_change_result(self):
        engine = MapReduceEngine()
        text = generate_text(100, seed=3)
        plain, _ = engine.run(wordcount_job(), chop(text, 8))
        for levels in (1, 2, 3):
            on_path, _ = engine.run(wordcount_job(), chop(text, 8),
                                    on_path_levels=levels)
            assert on_path == plain

    def test_on_path_reduces_shuffle_bytes(self):
        engine = MapReduceEngine()
        text = generate_text(200, vocabulary=50, seed=3)
        _, plain = engine.run(wordcount_job(), chop(text, 8),
                              use_combiner=False)
        _, on_path = engine.run(wordcount_job(), chop(text, 8),
                                on_path_levels=3, use_combiner=False)
        assert on_path.shuffle_bytes < plain.shuffle_bytes

    def test_level_bytes_monotonically_decrease(self):
        engine = MapReduceEngine()
        text = generate_text(200, vocabulary=50, seed=3)
        _, stats = engine.run(wordcount_job(), chop(text, 8),
                              on_path_levels=3)
        for before, after in zip(stats.level_bytes, stats.level_bytes[1:]):
            assert after <= before

    def test_multiple_reducers_same_result(self, monkeypatch):
        text = generate_text(100, seed=3)
        single, _ = MapReduceEngine().run(wordcount_job(), chop(text))
        monkeypatch.setattr(engine_module, "N_REDUCERS", 4)
        multi, _ = MapReduceEngine().run(wordcount_job(), chop(text))
        assert single == multi

    def test_on_path_without_combiner_rejected(self):
        engine = MapReduceEngine()
        with pytest.raises(ValueError):
            engine.run(terasort_job(), [["a"]], on_path_levels=1)

    def test_counters_filled(self):
        engine = MapReduceEngine()
        counters = Counters()
        engine.run(wordcount_job(), [["a b"], ["a"]], counters=counters)
        assert counters.map_input_records == 2
        assert counters.map_output_records == 3
        assert counters.reduce_output_records == 2
        assert counters.map_output_bytes > 0


class TestOutputRatios:
    """Measured ratios must match the paper's per-job character."""

    def test_wordcount_small_vocab_reduces_heavily(self):
        text = generate_text(400, vocabulary=50, seed=3)
        _, stats = MapReduceEngine().run(wordcount_job(), chop(text),
                                         use_combiner=False)
        assert stats.output_ratio < 0.15

    def test_wordcount_large_vocab_reduces_little(self):
        text = generate_text(200, vocabulary=50_000, seed=3)
        _, stats = MapReduceEngine().run(wordcount_job(), chop(text),
                                         use_combiner=False)
        # Zipf skew still repeats head words, but a 50k vocabulary leaves
        # most of the intermediate data unique.
        assert stats.output_ratio > 0.35

    def test_vocabulary_knob_is_monotone(self):
        ratios = []
        for vocab in (20, 200, 2000):
            text = generate_text(300, vocabulary=vocab, seed=3)
            _, stats = MapReduceEngine().run(wordcount_job(), chop(text),
                                             use_combiner=False)
            ratios.append(stats.output_ratio)
        assert ratios == sorted(ratios)

    def test_terasort_ratio_near_one(self):
        records = generate_terasort_records(500, seed=3)
        _, stats = MapReduceEngine().run(terasort_job(), chop(records),
                                         use_combiner=False)
        assert stats.output_ratio > 0.9

    def test_adpredictor_reduces_heavily(self):
        logs = generate_adpredictor_logs(2000, seed=3)
        _, stats = MapReduceEngine().run(adpredictor_job(), chop(logs),
                                         use_combiner=False)
        assert stats.output_ratio < 0.05


class TestBenchmarkJobs:
    def test_adpredictor_counts(self):
        logs = [
            (("f1", "f2", "f3"), True),
            (("f1", "f2", "f3"), False),
        ]
        result, _ = MapReduceEngine().run(adpredictor_job(), [logs])
        clicks, impressions = unpack_clicks(result["f1"])
        assert (clicks, impressions) == (1, 2)

    def test_pack_unpack_roundtrip(self):
        packed = pack_clicks(123, 456)
        assert unpack_clicks(packed) == (123, 456)

    def test_pack_validation(self):
        with pytest.raises(ValueError):
            pack_clicks(-1, 0)

    @given(st.integers(0, 2**30), st.integers(0, 2**30))
    @settings(max_examples=50)
    def test_pack_is_summable(self, a, b):
        # Summing packed pairs must equal packing the summed pair, the
        # property that makes AP's statistic combinable on-path.
        assert pack_clicks(a, b) + pack_clicks(b, a) == \
            pack_clicks(a + b, a + b)

    def test_pagerank_conserves_rank_mass(self):
        graph = generate_graph(50, seed=3)
        job = pagerank_job()
        result, _ = MapReduceEngine().run(job, chop(graph))
        # Every node with in-links gets (1-d) + d * contributions.
        assert all(v >= int(0.15 * 1_000_000) for v in result.values())

    def test_pagerank_iteration_changes_ranks(self):
        graph = generate_graph(50, seed=3)
        first, _ = MapReduceEngine().run(pagerank_job(), chop(graph))
        ranks = {int(k[1:]): v / 1_000_000 for k, v in first.items()}
        second, _ = MapReduceEngine().run(pagerank_job(ranks=ranks),
                                          chop(graph))
        assert first != second

    def test_uservisits_sums_revenue(self):
        visits = [("10.1.2.3", 1.50), ("10.1.9.9", 2.25), ("99.9.0.1", 1.0)]
        result, _ = MapReduceEngine().run(uservisits_job(), [visits])
        assert result["10.1"] == 375  # cents

    def test_terasort_keys_preserved(self):
        records = generate_terasort_records(100, seed=3)
        result, _ = MapReduceEngine().run(terasort_job(), chop(records))
        assert sum(result.values()) == 100

    def test_terasort_not_aggregatable(self):
        assert not terasort_job().aggregatable
        assert wordcount_job().aggregatable


class TestDataGenerators:
    def test_deterministic(self):
        assert generate_text(10, seed=5) == generate_text(10, seed=5)
        assert generate_graph(10, seed=5) == generate_graph(10, seed=5)

    def test_graph_no_self_loops(self):
        for node, targets in generate_graph(50, seed=3):
            assert node not in targets

    def test_adpredictor_ctr_respected(self):
        logs = generate_adpredictor_logs(5000, ctr=0.2, seed=3)
        clicked = sum(1 for _, c in logs if c)
        assert clicked / len(logs) == pytest.approx(0.2, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_text(0)
        with pytest.raises(ValueError):
            generate_graph(1)
        with pytest.raises(ValueError):
            generate_adpredictor_logs(10, ctr=1.5)

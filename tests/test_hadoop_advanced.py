"""Tests for reducer partitioning (TeraSort) and iterative PageRank."""

import pytest

from repro.apps.hadoop import (
    MapReduceEngine,
    generate_graph,
    generate_terasort_records,
    pagerank,
    terasort_job,
)
from repro.apps.hadoop import engine as engine_module


def chop(data, n=5):
    return [data[i::n] for i in range(n)]


class TestRangePartitioner:
    """Reducer partitioning: keys hash to reducers, and the output
    TeraSort reads is sorted by key all the same."""

    def test_hash_partitioner_also_sorted_output(self, monkeypatch):
        # Hash partitioning sorts the concatenated output explicitly,
        # and the reducer count does not change the result.
        records = generate_terasort_records(200, seed=9)
        monkeypatch.setattr(engine_module, "N_REDUCERS", 4)
        result, stats = MapReduceEngine().run(
            terasort_job(), chop(records), use_combiner=False)
        monkeypatch.undo()
        keys = [k for k, _ in stats.output_pairs]
        assert keys == sorted(keys)
        assert sum(v for _, v in stats.output_pairs) == 200
        one, _ = MapReduceEngine().run(terasort_job(), chop(records),
                                       use_combiner=False)
        assert result == one


class TestIterativePageRank:
    def test_converges(self):
        result = pagerank(generate_graph(40, seed=7), tolerance=1e-8)
        assert result.converged
        assert result.iterations < 50

    def test_rank_mass_is_one(self):
        result = pagerank(generate_graph(40, seed=7), tolerance=1e-10)
        assert sum(result.ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        pytest.importorskip("numpy")  # networkx.pagerank is scipy-backed
        graph = generate_graph(60, out_degree=3, seed=5)
        result = pagerank(graph, tolerance=1e-10, max_iterations=200)
        G = networkx.DiGraph()
        for node, targets in graph:
            G.add_node(node)
            for target in targets:
                G.add_edge(node, target)
        reference = networkx.pagerank(G, alpha=0.85, tol=1e-12,
                                      max_iter=500)
        for node, expected in reference.items():
            assert result.ranks[node] == pytest.approx(expected, abs=1e-8)

    def test_hubs_rank_higher(self):
        # generate_graph prefers low-id targets: node 0 is a hub.
        result = pagerank(generate_graph(50, seed=3), tolerance=1e-8)
        median = sorted(result.ranks.values())[25]
        assert result.ranks[0] > 1.5 * median

    def test_shuffle_bytes_accumulate(self):
        result = pagerank(generate_graph(30, seed=3), max_iterations=5,
                          tolerance=1e-15)
        assert result.iterations == 5
        assert len(result.per_iteration) == 5
        assert result.total_shuffle_bytes == pytest.approx(
            sum(s.shuffle_bytes for s in result.per_iteration)
        )

    def test_every_iteration_is_aggregatable(self):
        """The shuffle shrinks when combined on-path: PR's per-iteration
        traffic is exactly what NetAgg aggregates (Fig. 22's PR row)."""
        graph = generate_graph(60, seed=3)
        engine = MapReduceEngine()
        from repro.apps.hadoop.benchmarks import pagerank_job

        job = pagerank_job()
        _, plain = engine.run(job, chop(graph), use_combiner=False)
        _, combined = engine.run(job, chop(graph), on_path_levels=2,
                                 use_combiner=False)
        assert combined.shuffle_bytes < plain.shuffle_bytes

    def test_validation(self):
        graph = generate_graph(10, seed=1)
        with pytest.raises(ValueError):
            pagerank(graph, damping=1.5)
        with pytest.raises(ValueError):
            pagerank(graph, max_iterations=0)
        with pytest.raises(ValueError):
            pagerank(graph, tolerance=0.0)
        with pytest.raises(ValueError):
            pagerank([])

"""Tests for the mini distributed search engine."""

import pytest

from repro.aggbox.functions import TopKFunction
from repro.apps.solr import (
    InvertedIndex,
    SearchBackend,
    SearchFrontend,
    generate_corpus,
    make_categorise_wrapper,
    make_sample_wrapper,
    make_topk_wrapper,
    shard_corpus,
)
from repro.apps.solr.corpus import BASE_CATEGORIES, Document, random_queries
from repro.apps.solr.index import tokenize
from repro.wire import WireError, write_varint


def corpus(n=120, seed=2):
    return generate_corpus(n, seed=seed)


class TestCorpus:
    def test_deterministic(self):
        assert generate_corpus(20, seed=1) == generate_corpus(20, seed=1)

    def test_categories_assigned_round_robin(self):
        docs = corpus(10)
        assert docs[0].category == BASE_CATEGORIES[0]
        assert docs[5].category == BASE_CATEGORIES[0]

    def test_category_markers_present(self):
        for doc in corpus(20):
            assert doc.category in doc.body

    def test_sharding_partitions_all_docs(self):
        docs = corpus(50)
        shards = shard_corpus(docs, 4)
        assert sum(len(s) for s in shards) == 50
        ids = {d.doc_id for s in shards for d in s}
        assert ids == {d.doc_id for d in docs}

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            shard_corpus(corpus(10), 0)

    def test_queries_drawn_from_corpus(self):
        docs = corpus(30)
        queries = random_queries(docs, 5)
        assert len(queries) == 5
        assert all(len(q.split()) == 3 for q in queries)


class TestInvertedIndex:
    def test_tokenize(self):
        assert tokenize("Hello, World! x2") == ["hello", "world", "x2"]

    def test_search_finds_matching_doc(self):
        index = InvertedIndex()
        index.add(Document(1, "t", "apple banana", "science"))
        index.add(Document(2, "t", "cherry durian", "science"))
        results = index.search("apple")
        assert [doc_id for doc_id, _ in results] == [1]

    def test_duplicate_doc_rejected(self):
        index = InvertedIndex()
        doc = Document(1, "t", "a", "science")
        index.add(doc)
        with pytest.raises(ValueError):
            index.add(doc)

    def test_tf_increases_score(self):
        index = InvertedIndex()
        index.add(Document(1, "t", "apple apple apple pear pear pear",
                           "science"))
        index.add(Document(2, "t", "apple pear pear pear pear pear",
                           "science"))
        results = dict(index.search("apple"))
        assert results[1] > results[2]

    def test_k_limits_results(self):
        index = InvertedIndex()
        for i in range(10):
            index.add(Document(i, "t", "common words here", "science"))
        assert len(index.search("common", k=3)) == 3

    def test_no_match_empty(self):
        index = InvertedIndex()
        index.add(Document(1, "t", "apple", "science"))
        assert index.search("zebra") == []

    def test_df(self):
        index = InvertedIndex()
        index.add(Document(1, "t", "apple", "science"))
        index.add(Document(2, "t", "apple pear", "science"))
        assert index.df("apple") == 2
        assert index.df("pear") == 1
        assert index.df("zebra") == 0


class TestDistributedSearch:
    def test_sharded_equals_centralised(self):
        docs = corpus(150)
        backends = [SearchBackend(f"b{i}", s)
                    for i, s in enumerate(shard_corpus(docs, 5))]
        frontend = SearchFrontend(backends, k=7)
        central = SearchBackend("all", docs)
        for query in random_queries(docs, 10, seed=4):
            distributed = frontend.search(query)
            centralised = central.query(query, k=7)
            assert [(r.doc_id, pytest.approx(r.score))
                    for r in distributed] == \
                [(r.doc_id, r.score) for r in centralised]

    def test_merge_absorbs_empty_responses(self):
        docs = corpus(60)
        backends = [SearchBackend(f"b{i}", s)
                    for i, s in enumerate(shard_corpus(docs, 3))]
        frontend = SearchFrontend(backends, k=5)
        partials = frontend.scatter("science history")
        merged_all = frontend.merge_responses(partials)
        # NetAgg-style: everything in slot 0, None elsewhere.
        pre_merged = TopKFunction(k=5).merge(partials)
        assert frontend.merge_responses([pre_merged, None, None]) == \
            merged_all

    def test_search_via_external_aggregation(self):
        docs = corpus(60)
        backends = [SearchBackend(f"b{i}", s)
                    for i, s in enumerate(shard_corpus(docs, 3))]
        frontend = SearchFrontend(backends, k=5)

        def fake_netagg(query, partials):
            merged = TopKFunction(k=5).merge(partials)
            return [merged] + [None] * (len(partials) - 1)

        via = frontend.search_via("science history", fake_netagg)
        plain = frontend.search("science history")
        assert via == plain

    def test_search_via_validates_slot_count(self):
        docs = corpus(30)
        backends = [SearchBackend(f"b{i}", s)
                    for i, s in enumerate(shard_corpus(docs, 3))]
        frontend = SearchFrontend(backends)
        with pytest.raises(ValueError):
            frontend.search_via("q", lambda q, p: [None])

    def test_frontend_requires_backends(self):
        with pytest.raises(ValueError):
            SearchFrontend([])

    def test_queries_served_counted(self):
        docs = corpus(30)
        backend = SearchBackend("b0", docs)
        frontend = SearchFrontend([backend])
        frontend.search("anything")
        assert frontend.queries_served == 1
        assert backend.queries_served >= 1


class TestWrappers:
    def test_topk_wrapper_roundtrip(self):
        fn, serialise, deserialise = make_topk_wrapper(k=2)
        docs = corpus(30)
        backend = SearchBackend("b0", docs)
        results = backend.query("science", k=4)
        assert deserialise(serialise(results)) == results
        assert len(fn.merge([results])) <= 2

    def test_sample_wrapper(self):
        fn, serialise, deserialise = make_sample_wrapper(alpha=0.5)
        assert fn.alpha == 0.5

    def test_categorise_wrapper_roundtrip(self):
        fn, serialise, deserialise = make_categorise_wrapper(k=2)
        items = [("science text science", 1.5, "")]
        merged = fn.merge([items])
        assert deserialise(serialise(merged)) == merged
        assert merged[0][2] == "science"

    def test_categorise_decoder_rejects_malformed_batches(self):
        _, serialise, deserialise = make_categorise_wrapper(k=2)
        encoded = serialise([("science text", 1.5, "science")])
        with pytest.raises(WireError, match="2 trailing bytes"):
            deserialise(encoded + b"\x00\x00")
        # A declared count far beyond the buffer fails on the first
        # missing item instead of sizing anything by the count.
        with pytest.raises(WireError):
            deserialise(write_varint(2**60) + encoded[1:])

    def test_categorise_classifies_corpus_correctly(self):
        fn, _, _ = make_categorise_wrapper()
        docs = corpus(25)
        hits = 0
        for doc in docs:
            if fn.classify(doc.text) == doc.category:
                hits += 1
        assert hits / len(docs) > 0.8

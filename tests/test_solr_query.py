"""Tests for the search query language (boolean, phrase, distributed)."""

import pytest

from repro.apps.solr import (
    SearchBackend,
    SearchFrontend,
    generate_corpus,
    shard_corpus,
)
from repro.apps.solr.corpus import Document
from repro.apps.solr.index import InvertedIndex
from repro.apps.solr.query import (
    QuerySyntaxError,
    allowed_documents,
    parse_query,
    search_parsed,
)

DOCS = [
    Document(0, "t", "the quick brown fox jumps", "science"),
    Document(1, "t", "the lazy brown dog sleeps", "science"),
    Document(2, "t", "quick dog runs quick", "science"),
    Document(3, "t", "brown fox brown fox brown fox", "science"),
]


def make_index():
    index = InvertedIndex()
    index.add_all(DOCS)
    return index


class TestParseQuery:
    def test_plain_terms(self):
        parsed = parse_query("cat dog")
        assert parsed.optional == ("cat", "dog")
        assert parsed.is_pure_ranking

    def test_required_and_excluded(self):
        parsed = parse_query("+fox -dog brown")
        assert parsed.required == ("fox",)
        assert parsed.excluded == ("dog",)
        assert parsed.optional == ("brown",)
        assert not parsed.is_pure_ranking

    def test_phrase(self):
        parsed = parse_query('"brown fox" quick')
        assert parsed.phrases == (("brown", "fox"),)
        assert parsed.optional == ("quick",)

    def test_single_word_phrase_becomes_required(self):
        parsed = parse_query('"fox" dog')
        assert parsed.required == ("fox",)
        assert parsed.phrases == ()

    def test_unbalanced_quotes_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('brown "fox')

    def test_dangling_operators_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("+ fox")
        with pytest.raises(QuerySyntaxError):
            parse_query("- fox")

    def test_empty_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("   ")

    def test_case_normalised(self):
        parsed = parse_query("+FOX Brown")
        assert parsed.required == ("fox",)
        assert parsed.optional == ("brown",)


class TestPositionalIndex:
    def test_positions_recorded(self):
        index = make_index()
        # Document text is "<title> <body>": the title token "t" sits at
        # position 0, so body words start at 1.
        assert index.positions("quick", 2) == [1, 4]
        assert index.positions("missing", 2) == []

    def test_docs_with_term(self):
        index = make_index()
        assert index.docs_with_term("brown") == [0, 1, 3]

    def test_phrase_match(self):
        index = make_index()
        assert index.docs_with_phrase(["brown", "fox"]) == [0, 3]
        assert index.docs_with_phrase(["fox", "brown"]) == [3]
        assert index.docs_with_phrase(["quick", "dog"]) == [2]

    def test_phrase_no_match(self):
        index = make_index()
        assert index.docs_with_phrase(["dog", "fox"]) == []
        assert index.docs_with_phrase(["zebra"]) == []


class TestConstraints:
    def test_required_intersects(self):
        index = make_index()
        allowed = allowed_documents(index, parse_query("+quick +dog x"))
        assert allowed == {2}

    def test_excluded_subtracts(self):
        index = make_index()
        allowed = allowed_documents(index, parse_query("brown -dog"))
        assert allowed == {0, 3}

    def test_pure_ranking_unconstrained(self):
        index = make_index()
        assert allowed_documents(index, parse_query("brown fox")) is None

    def test_search_parsed_applies_constraints(self):
        index = make_index()
        results = search_parsed(index, parse_query('+brown -dog fox'))
        ids = [doc for doc, _ in results]
        assert set(ids) == {0, 3}

    def test_phrase_restricts_ranking(self):
        index = make_index()
        results = search_parsed(index, parse_query('"brown fox"'))
        assert {doc for doc, _ in results} == {0, 3}


class TestDistributedAdvancedQueries:
    def test_sharded_equals_centralised_with_operators(self):
        docs = generate_corpus(120, seed=8)
        backends = [SearchBackend(f"b{i}", s)
                    for i, s in enumerate(shard_corpus(docs, 4))]
        frontend = SearchFrontend(backends, k=6)
        central = SearchBackend("all", docs)
        # Build queries from real corpus words.
        words = docs[0].body.split()
        queries = [
            f"+{words[0]} {words[5]}",
            f"{words[1]} -{words[2]}",
            f'"{words[3]} {words[4]}" {words[0]}',
            "+science -history geography",
        ]
        for query in queries:
            distributed = [(r.doc_id, pytest.approx(r.score))
                           for r in frontend.search(query)]
            reference = [(r.doc_id, r.score)
                         for r in central.query(query, k=6)]
            assert distributed == reference

    def test_excluded_term_filters_across_shards(self):
        docs = generate_corpus(60, seed=8)
        backends = [SearchBackend(f"b{i}", s)
                    for i, s in enumerate(shard_corpus(docs, 3))]
        frontend = SearchFrontend(backends, k=20)
        for result in frontend.search("science -history"):
            doc = next(b for b in backends
                       if result.doc_id % 3 == int(b.backend_id[1])
                       )._index.document(result.doc_id)
            assert "history" not in doc.text.lower().split()

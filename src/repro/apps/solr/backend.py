"""A search backend: one index shard behind a query interface."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.solr.corpus import Document
from repro.apps.solr.index import InvertedIndex
from repro.wire.records import SearchResult


class SearchBackend:
    """One worker node of the distributed search engine."""

    def __init__(self, backend_id: str,
                 documents: Sequence[Document]) -> None:
        self.backend_id = backend_id
        self._index = InvertedIndex()
        self._index.add_all(documents)
        self.queries_served = 0

    @property
    def n_docs(self) -> int:
        return self._index.n_docs

    def term_stats(self, text: str) -> Dict[str, int]:
        """Per-term shard document frequencies (distributed-IDF phase 1)."""
        from repro.apps.solr.index import tokenize

        return {term: self._index.df(term) for term in set(tokenize(text))}

    def query(self, text: str, k: int = 10,
              global_doc_count: Optional[int] = None,
              global_df: Optional[Dict[str, int]] = None,
              with_snippets: bool = True) -> List[SearchResult]:
        """Top-k partial results for this shard.

        Supports the full query syntax of :mod:`repro.apps.solr.query`:
        bare terms rank, ``+term`` requires, ``-term`` excludes,
        ``"a b"`` matches phrases.
        """
        from repro.apps.solr.query import parse_query, search_parsed

        self.queries_served += 1
        parsed = parse_query(text)
        results = []
        for doc_id, score in search_parsed(
            self._index, parsed, k=k, global_doc_count=global_doc_count,
            global_df=global_df,
        ):
            snippet = ""
            if with_snippets:
                doc = self._index.document(doc_id)
                snippet = doc.text[:120]
            results.append(SearchResult(doc_id=doc_id, score=score,
                                        snippet=snippet))
        return results

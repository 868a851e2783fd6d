"""Inverted index with TF-IDF scoring.

A real (if small) full-text index: tokenisation, postings lists with
term frequencies, document lengths, and cosine-flavoured TF-IDF ranking.
Each backend holds one of these over its shard.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.apps.solr.corpus import Document

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    return _TOKEN.findall(text.lower())


class InvertedIndex:
    """Positional postings with TF-IDF ranking over one document shard."""

    def __init__(self) -> None:
        #: term -> doc id -> token positions (tf = len(positions)).
        self._postings: Dict[str, Dict[int, List[int]]] = {}
        self._doc_len: Dict[int, int] = {}
        self._docs: Dict[int, Document] = {}

    # -- construction -------------------------------------------------------

    def add(self, doc: Document) -> None:
        if doc.doc_id in self._docs:
            raise ValueError(f"duplicate doc id {doc.doc_id}")
        tokens = tokenize(doc.text)
        self._docs[doc.doc_id] = doc
        self._doc_len[doc.doc_id] = len(tokens)
        for position, token in enumerate(tokens):
            bucket = self._postings.setdefault(token, {})
            bucket.setdefault(doc.doc_id, []).append(position)

    def add_all(self, docs: Iterable[Document]) -> None:
        for doc in docs:
            self.add(doc)

    # -- stats ----------------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._docs)

    def document(self, doc_id: int) -> Document:
        return self._docs[doc_id]

    def df(self, term: str) -> int:
        """Document frequency of a term within this shard."""
        return len(self._postings.get(term.lower(), {}))

    def docs_with_term(self, term: str) -> List[int]:
        """Doc ids containing ``term`` in this shard."""
        return sorted(self._postings.get(term.lower(), {}))

    def positions(self, term: str, doc_id: int) -> List[int]:
        """Token positions of ``term`` in ``doc_id`` (empty if absent)."""
        return list(self._postings.get(term.lower(), {}).get(doc_id, ()))

    def docs_with_phrase(self, words: List[str]) -> List[int]:
        """Doc ids containing the words consecutively, in order."""
        if not words:
            return []
        first = self._postings.get(words[0].lower())
        if not first:
            return []
        matches = []
        for doc_id, starts in first.items():
            offsets = [set(self.positions(w, doc_id)) for w in words[1:]]
            if any(not o for o in offsets):
                continue
            for start in starts:
                if all(start + i + 1 in offsets[i]
                       for i in range(len(words) - 1)):
                    matches.append(doc_id)
                    break
        return sorted(matches)

    # -- querying ---------------------------------------------------------------

    def search(self, query: str, k: int = 10,
               global_doc_count: Optional[int] = None,
               global_df: Optional[Dict[str, int]] = None
               ) -> List[Tuple[int, float]]:
        """Top-k (doc_id, score) for the query, best first.

        ``global_doc_count`` and ``global_df`` let a distributed
        deployment use corpus-wide IDF statistics (the frontend gathers
        them in a first phase, like Solr's distributed IDF), so sharded
        scores match a centralised index exactly.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n_docs = global_doc_count or self.n_docs
        if n_docs == 0:
            return []
        scores: Dict[int, float] = {}
        for term in tokenize(query):
            postings = self._postings.get(term)
            if not postings:
                continue
            df = (global_df or {}).get(term, len(postings))
            if df <= 0:
                continue
            idf = math.log(1.0 + n_docs / df)
            for doc_id, positions in postings.items():
                weight = (1.0 + math.log(len(positions))) * idf
                scores[doc_id] = scores.get(doc_id, 0.0) + weight
        ranked = sorted(
            scores.items(),
            key=lambda item: (-item[1] / math.sqrt(self._doc_len[item[0]]),
                              item[0]),
        )
        return [
            (doc_id, score / math.sqrt(self._doc_len[doc_id]))
            for doc_id, score in ranked[:k]
        ]

"""Style-exemplar retrieval over translated sentence pairs.

Candidates are scored by a blend of two lexical signals: cosine similarity
between tf-idf term vectors and Jaccard overlap between keyword sets,
combined as ``alpha * cosine + (1 - alpha) * jaccard``. Pools are small
(one document prefix or one exemplar file), so search is exact: every
candidate is scored.

ExemplarIndex is the one pool type. It grows by append, which splits the
source into terms once, keeps its term counts and updates the document
frequencies. Every append changes N and so every idf; each exemplar's
weights, norm and keywords are recomputed from the kept counts at the
first query after an append. A query's vector is computed once per top_k
call and scored against every candidate by the one scorer that
similarity() also uses.

build_index weighs the pool before it returns, so queries never write a
built index and concurrent queries are safe. Incremental decoding appends
to a per-document index of its own.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .tokenization import terms

DEFAULT_ALPHA = 0.5
DEFAULT_KEYWORD_COUNT = 5

ExcludeFn = Callable[[str, int], bool]


@dataclass(frozen=True)
class Exemplar:
    exemplar_id: str
    doc_id: str
    seg_index: int
    source: str
    target: str
    term_counts: Mapping[str, int]  # in first-occurrence order


@dataclass(frozen=True)
class SimilarityScore:
    combined: float
    lexical: float
    keyword: float


# tf-idf weights in first-occurrence order, their norm, and the keywords
_Vector = tuple[dict[str, float], float, frozenset[str]]


def _idf(total_docs: int, df: int) -> float:
    return math.log((1 + total_docs) / (1 + df)) + 1.0


def _top_terms(weights: dict[str, float], m: int) -> list[str]:
    # a stable sort keeps first-occurrence order among equal weights
    return sorted(weights, key=weights.__getitem__, reverse=True)[:m]


def _norm(u: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in u.values()))


def _vector(
    counts: Mapping[str, int], idf: Callable[[str], float], keyword_count: int
) -> _Vector:
    """The one place a text's weights, norm and keywords are computed."""
    weights = {t: c * idf(t) for t, c in counts.items()}
    return weights, _norm(weights), frozenset(_top_terms(weights, keyword_count))


class ExemplarIndex:
    """Searchable pool of exemplars with its term statistics, grown by
    append."""

    def __init__(self, keyword_count: int = DEFAULT_KEYWORD_COUNT):
        if keyword_count < 1:
            raise ValueError("keyword_count must be >= 1")
        self.keyword_count = keyword_count
        self.exemplars: list[Exemplar] = []
        self.doc_freq: Counter[str] = Counter()
        self._vectors: list[_Vector] | None = []  # None after an append

    @property
    def total_docs(self) -> int:
        return len(self.exemplars)

    def append(self, source: str, target: str, doc_id: str, seg_index: int) -> Exemplar:
        if not source.strip():
            raise ValueError("exemplar sources must be non-empty")
        counts = Counter(terms(source))
        ex = Exemplar(f"{doc_id}:{seg_index}", doc_id, seg_index, source, target, counts)
        self.exemplars.append(ex)
        self.doc_freq.update(counts.keys())
        self._vectors = None
        return ex

    def idf(self, term: str) -> float:
        return _idf(self.total_docs, self.doc_freq.get(term, 0))

    def weights(self, text: str) -> dict[str, float]:
        """tf-idf vector of arbitrary text under this index's statistics,
        in first-occurrence order."""
        return self._weigh(Counter(terms(text)))[0]

    def _weigh(self, counts: Mapping[str, int]) -> _Vector:
        return _vector(counts, self.idf, self.keyword_count)

    def _candidates(self) -> list[_Vector]:
        """Every exemplar's vector under the current N, recomputed from the
        kept term counts after an append."""
        if self._vectors is None:
            total_docs = self.total_docs
            idf = {t: _idf(total_docs, df) for t, df in self.doc_freq.items()}
            self._vectors = [
                _vector(ex.term_counts, idf.__getitem__, self.keyword_count)
                for ex in self.exemplars
            ]
        return self._vectors


def extract_keywords(sentence: str, index: ExemplarIndex, m: int) -> list[str]:
    """Up to m distinct terms with highest tf-idf weight, ties broken by
    first occurrence in the sentence."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _top_terms(index.weights(sentence), m)


def build_index(
    pool: Iterable[tuple[str, str, str, int]],
    keyword_count: int = DEFAULT_KEYWORD_COUNT,
) -> ExemplarIndex:
    """Build an index from (source, target, doc_id, seg_index) tuples.

    Term weights are tf-idf with idf = ln((1 + N) / (1 + df)) + 1; keywords
    are the keyword_count terms of highest weight, extracted against the
    finished frequency table. The index is weighed before it returns.
    """
    index = ExemplarIndex(keyword_count)
    for source, target, doc_id, seg_index in pool:
        index.append(source, target, doc_id, seg_index)
    index._candidates()  # weighed now, a query never writes it: threads can share it
    return index


def _cosine(u: dict[str, float], norm_u: float, v: dict[str, float], norm_v: float) -> float:
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    return dot / (norm_u * norm_v)


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")


def _score(query: _Vector, candidate: _Vector, alpha: float) -> tuple[float, float, float]:
    """(combined, lexical, keyword) of one candidate; the only scoring code."""
    q_weights, q_norm, q_keywords = query
    c_weights, c_norm, c_keywords = candidate
    lexical = _cosine(q_weights, q_norm, c_weights, c_norm)
    keyword = _jaccard(q_keywords, c_keywords)
    return alpha * lexical + (1.0 - alpha) * keyword, lexical, keyword


def similarity(
    query: str,
    ex: Exemplar,
    index: ExemplarIndex,
    alpha: float = DEFAULT_ALPHA,
) -> SimilarityScore:
    _check_alpha(alpha)
    return SimilarityScore(
        *_score(index._weigh(Counter(terms(query))), index._weigh(ex.term_counts), alpha)
    )


def top_k(
    query: str,
    index: ExemplarIndex,
    k: int,
    exclude: ExcludeFn | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> list[Exemplar]:
    """The k best-scoring non-excluded exemplars, descending by combined
    score, ties broken by (doc_id, seg_index). Zero-score candidates are
    never returned, so fewer than k may come back."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    _check_alpha(alpha)
    q = index._weigh(Counter(terms(query)))
    scored = []
    for ex, vector in zip(index.exemplars, index._candidates()):
        if exclude is not None and exclude(ex.doc_id, ex.seg_index):
            continue
        score = _score(q, vector, alpha)[0]
        if score > 0.0:
            scored.append((score, ex))
    scored.sort(key=lambda item: (-item[0], item[1].doc_id, item[1].seg_index))
    return [ex for _s, ex in scored[:k]]


def pool_from_pairs(
    pairs: Iterable,
) -> list[tuple[str, str, str, int]]:
    """Adapt corpus SentencePairs (with targets) to build_index input."""
    pool = []
    for p in pairs:
        if p.target is None:
            raise ValueError(f"pair {p.doc_id}#{p.seg_index} has no target")
        pool.append((p.source, p.target, p.doc_id, p.seg_index))
    return pool

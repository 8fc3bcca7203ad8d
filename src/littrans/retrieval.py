"""Style-exemplar retrieval over translated sentence pairs.

Candidates are scored by a blend of two lexical signals: cosine similarity
between tf-idf term vectors and Jaccard overlap between keyword sets,
combined as ``alpha * cosine + (1 - alpha) * jaccard``. Pools are small
(one document prefix or one exemplar file), so search is exact: every
candidate is scored.

Each sentence is split into terms once. An index keeps each exemplar's
weights and keywords; a query's vector, norm and keywords are computed
once per top_k call and then scored against every candidate by the one
scorer that similarity() also uses.

ExemplarIndex is immutable once built and safe for concurrent queries.
Incremental decoding grows a per-document DocumentOverlay instead of
mutating a shared index; it caches each source's term counts and the
prefix's document frequencies, so a new sentence re-weights the prefix
from those counts rather than rebuilding it from text.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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
    keywords: frozenset[str]
    term_weights: dict[str, float]


@dataclass(frozen=True)
class SimilarityScore:
    combined: float
    lexical: float
    keyword: float


class ExemplarIndex:
    """Searchable pool of exemplars with corpus-level term statistics."""

    def __init__(
        self,
        exemplars: tuple[Exemplar, ...],
        doc_freq: dict[str, int],
        keyword_count: int = DEFAULT_KEYWORD_COUNT,
        total_docs: int | None = None,
    ):
        self.exemplars = exemplars
        self.doc_freq = doc_freq
        self.total_docs = len(exemplars) if total_docs is None else total_docs
        self.keyword_count = keyword_count

    def idf(self, term: str) -> float:
        return _idf(self.total_docs, self.doc_freq.get(term, 0))

    def weights(self, text: str) -> dict[str, float]:
        """tf-idf vector of arbitrary text under this index's statistics,
        in first-occurrence order."""
        return {t: c * self.idf(t) for t, c in Counter(terms(text)).items()}


def _idf(total_docs: int, df: int) -> float:
    return math.log((1 + total_docs) / (1 + df)) + 1.0


def _top_terms(weights: dict[str, float], m: int) -> list[str]:
    # a stable sort keeps first-occurrence order among equal weights
    return sorted(weights, key=weights.__getitem__, reverse=True)[:m]


def extract_keywords(sentence: str, index: ExemplarIndex, m: int) -> list[str]:
    """Up to m distinct terms with highest tf-idf weight, ties broken by
    first occurrence in the sentence."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _top_terms(index.weights(sentence), m)


def _source_counts(source: str) -> Counter[str]:
    if not source.strip():
        raise ValueError("exemplar sources must be non-empty")
    return Counter(terms(source))


def _materialize(
    entries: Sequence[tuple[str, str, str, int]],
    counts: Sequence[Counter[str]],
    doc_freq: Counter[str],
    keyword_count: int,
) -> ExemplarIndex:
    """Index over entries whose term counts are already known: tf-idf
    weights and keywords are computed against the finished df table."""
    if keyword_count < 1:
        raise ValueError("keyword_count must be >= 1")
    total_docs = len(entries)
    idf = {t: _idf(total_docs, df) for t, df in doc_freq.items()}
    exemplars = []
    for (source, target, doc_id, seg_index), term_counts in zip(entries, counts):
        # counts iterate in first-occurrence order, and so do the weights
        weights = {t: c * idf[t] for t, c in term_counts.items()}
        exemplars.append(
            Exemplar(
                exemplar_id=f"{doc_id}:{seg_index}",
                doc_id=doc_id,
                seg_index=seg_index,
                source=source,
                target=target,
                keywords=frozenset(_top_terms(weights, keyword_count)),
                term_weights=weights,
            )
        )
    return ExemplarIndex(tuple(exemplars), dict(doc_freq), keyword_count, total_docs)


def build_index(
    pool: Iterable[tuple[str, str, str, int]],
    keyword_count: int = DEFAULT_KEYWORD_COUNT,
) -> ExemplarIndex:
    """Build an index from (source, target, doc_id, seg_index) tuples.

    Term weights are tf-idf with idf = ln((1 + N) / (1 + df)) + 1; keywords
    are the keyword_count terms of highest weight, extracted against the
    finished frequency table.
    """
    entries = list(pool)
    counts = [_source_counts(source) for source, _target, _doc_id, _seg in entries]
    doc_freq: Counter[str] = Counter()
    for term_counts in counts:
        doc_freq.update(term_counts.keys())
    return _materialize(entries, counts, doc_freq, keyword_count)


def _norm(u: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in u.values()))


def _cosine(u: dict[str, float], v: dict[str, float], norm_u: float) -> float:
    if not u or not v:
        return 0.0
    norm_v = _norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    return dot / (norm_u * norm_v)


def _jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union


_Query = tuple[dict[str, float], float, frozenset[str]]


def _query(text: str, index: ExemplarIndex) -> _Query:
    """The query's tf-idf vector, its norm and its keywords under index."""
    weights = index.weights(text)
    return weights, _norm(weights), frozenset(_top_terms(weights, index.keyword_count))


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")


def _score(query: _Query, ex: Exemplar, alpha: float) -> tuple[float, float, float]:
    """(combined, lexical, keyword) of one candidate; the only scoring code."""
    weights, norm, keywords = query
    lexical = _cosine(weights, ex.term_weights, norm)
    keyword = _jaccard(keywords, ex.keywords)
    return alpha * lexical + (1.0 - alpha) * keyword, lexical, keyword


def similarity(
    query: str,
    ex: Exemplar,
    index: ExemplarIndex,
    alpha: float = DEFAULT_ALPHA,
) -> SimilarityScore:
    _check_alpha(alpha)
    return SimilarityScore(*_score(_query(query, index), ex, alpha))


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
    q = _query(query, index)
    scored = []
    for ex in index.exemplars:
        if exclude is not None and exclude(ex.doc_id, ex.seg_index):
            continue
        score = _score(q, ex, alpha)[0]
        if score > 0.0:
            scored.append((score, ex))
    scored.sort(key=lambda item: (-item[0], item[1].doc_id, item[1].seg_index))
    return [ex for _s, ex in scored[:k]]


@dataclass
class DocumentOverlay:
    """Growing per-document exemplar pool for incremental decoding.

    append splits the new source into terms once and adds them to the
    overlay's own document-frequency table. Every append changes N and so
    every idf, so index re-weights the whole prefix from the cached term
    counts (no source is split again) on its first use after an append.
    The shared corpus-level index is never touched.
    """

    keyword_count: int = DEFAULT_KEYWORD_COUNT
    _pool: list[tuple[str, str, str, int]] = field(default_factory=list)
    _counts: list[Counter[str]] = field(default_factory=list)
    _doc_freq: Counter[str] = field(default_factory=Counter)
    _index: ExemplarIndex | None = None

    def append(self, source: str, target: str, doc_id: str, seg_index: int) -> None:
        counts = _source_counts(source)
        self._pool.append((source, target, doc_id, seg_index))
        self._counts.append(counts)
        self._doc_freq.update(counts.keys())
        self._index = None

    @property
    def index(self) -> ExemplarIndex:
        if self._index is None:
            self._index = _materialize(
                self._pool, self._counts, self._doc_freq, self.keyword_count
            )
        return self._index


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

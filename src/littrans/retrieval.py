"""Style-exemplar retrieval over translated sentence pairs.

Candidates are scored by a blend of two lexical signals: cosine similarity
between tf-idf term vectors and Jaccard overlap between keyword sets,
combined as ``alpha * cosine + (1 - alpha) * jaccard``.

ExemplarIndex is the one pool type, and both of its kinds hold one inverted
file: per term, the positions of the exemplars that hold it and, beside
them, one value per posting. A term's document frequency is the length of
its postings list. The kinds differ only in those values and in one step
of the bound pass. A grown index keeps each term's count c as its value:
every append changes N and so every idf, and each idf is computed from N
and df where it is read, so no table goes stale. A pool from build_index
keeps the weight c·idf/‖e‖ under its final N instead, and also keyword
postings: per term, the exemplars that hold it as a keyword. It also maps
each source to its vector, so a query that is a pool member, as in stage
3's self-join of a corpus with itself, is not tokenized or weighed again.

Search is exact without scoring every candidate. top_k walks the postings
of the query's terms and gets, for each exemplar that shares a term, an
upper bound on its score (see ExemplarIndex._bounds); an exemplar that
shares no term scores 0 and is never returned. On a built index the bound
is the score up to rounding: its values are already divided by each
exemplar's norm, and its keyword postings give the exact keyword overlap.
On a grown one, which holds no vectors and whose keywords change with
every append, the pass weighs the counts, divides by a norm computed, less
a slack, from N and three norm sums that append keeps, and counts the
query keywords among each exemplar's terms. top_k then scores exemplars
in descending bound with _score, the one scorer that similarity() also
uses, reading each vector from a built index or weighing it then on a
grown one, and stops when the next bound falls below the k-th best score
so far by more than a rounding margin. Every exemplar that could still
enter the top k, ties included, has been scored with the same floats as a
full scan, so the ids are those a full scan returns; on a built index,
only those k and their ties are scored.

No query writes an index, so concurrent queries are safe; only append
does. A grown ExemplarIndex is what incremental decoding appends to, one
per document. build_index returns a pool that holds its vectors and takes
no appends; use it for a fixed pool.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Callable, Iterable, Mapping

from .tokenization import terms

DEFAULT_ALPHA = 0.5
DEFAULT_KEYWORD_COUNT = 5

ExcludeFn = Callable[[str, int], bool]

# absorbs the rounding of a bound, which sums in another order than _score
_BOUND_MARGIN = 1e-9
# share of its terms' magnitude taken off a grown index's squared norm, for
# the cancellation and the drift of the sums that append keeps
_NORM_SLACK = 1e-9


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
    return math.sqrt(sum(map(mul, u.values(), u.values())))


def _weighed(counts: Mapping[str, int], idfs: Iterable[float], keyword_count: int) -> _Vector:
    """The one place a text's weights, norm and keywords are computed; idfs in counts order."""
    weights = dict(zip(counts, map(mul, counts.values(), idfs)))
    return weights, _norm(weights), frozenset(_top_terms(weights, keyword_count))


class ExemplarIndex:
    """Searchable pool of exemplars with its term statistics, grown by
    append."""

    def __init__(self, keyword_count: int = DEFAULT_KEYWORD_COUNT):
        if keyword_count < 1:
            raise ValueError("keyword_count must be >= 1")
        self.keyword_count = keyword_count
        self.exemplars: list[Exemplar] = []
        self._postings: dict[str, list[int]] = {}  # term -> positions of its exemplars
        # term -> one value per posting: the count c on a grown index, the
        # weight c·idf/‖e‖ on a built one
        self._values: dict[str, list] = {}
        # term -> positions of the exemplars that hold it as a keyword, built
        # by build_index; a grown index's keywords change with every append,
        # so there it is the term postings
        self._keyword_postings: dict[str, list[int]] = self._postings
        self._keyword_sizes: list[int] = []  # per exemplar
        # per exemplar, the sums S0 = Σc², S1 = Σc² ln(1 + df) and
        # S2 = Σc² ln(1 + df)² over its terms, kept by append; None on a built index
        self._moments: tuple[list[int], list[float], list[float]] | None = ([], [], [])
        self._vectors: list[_Vector] | None = None  # one per exemplar, held only if built
        # source -> its vector, filled by build_index; a grown index's N
        # changes with every append, so it keeps none
        self._source_vectors: dict[str, _Vector] = {}

    @property
    def total_docs(self) -> int:
        return len(self.exemplars)

    def append(self, source: str, target: str, doc_id: str, seg_index: int) -> Exemplar:
        if self._vectors is not None:
            raise ValueError("a built index takes no appends; grow an ExemplarIndex instead")
        if not source.strip():
            raise ValueError("exemplar sources must be non-empty")
        counts = Counter(terms(source))
        position = len(self.exemplars)
        ex = Exemplar(f"{doc_id}:{seg_index}", doc_id, seg_index, source, target, counts)
        self.exemplars.append(ex)
        moments = self._moments
        if moments is not None:
            s0, s1, s2 = moments
            s0.append(sum(c * c for c in counts.values()))
            s1.append(0.0)
            s2.append(0.0)
        for t, c in counts.items():
            postings = self._postings.setdefault(t, [])
            if moments is not None:  # grown; build_index adds a built index's values
                values = self._values.setdefault(t, [])
                old, new = math.log(1 + len(postings)), math.log(2 + len(postings))  # df + 1
                self._add_moments(postings, values, old, new)
                cc = c * c
                s1[position] += cc * new
                s2[position] += cc * (new * new)
                values.append(c)
            postings.append(position)
        self._keyword_sizes.append(min(self.keyword_count, len(counts)))
        return ex

    def _weigh(self, counts: Mapping[str, int]) -> _Vector:
        postings, n1 = self._postings, 1 + self.total_docs  # each idf as _idf computes it
        idfs = [math.log(n1 / (1 + len(postings.get(t, ())))) + 1.0 for t in counts]
        return _weighed(counts, idfs, self.keyword_count)

    def _add_moments(
        self, positions: Iterable[int], counts: Iterable[int], old: float, new: float
    ) -> None:
        """Move S1 and S2 of each exemplar on a term's postings from its
        ln(1 + df) = old to new: add c² (new - old) and c² (new² - old²)."""
        _s0, s1, s2 = self._moments
        d1 = new - old
        d2 = new * new - old * old
        for position, c in zip(positions, counts):
            cc = c * c
            s1[position] += cc * d1
            s2[position] += cc * d2

    def _bounds(self, query: _Vector, alpha: float) -> list[float]:
        """An upper bound on the combined score of each exemplar, by
        position; 0 where it shares no term with the query (or, at alpha 0,
        no query keyword), as its score is then 0.

        One pass over the query's terms adds (alpha q_t / ‖q‖) v to the
        bound of each posting. Both sides weigh a shared term with the same
        idf, so this is the exact cosine over the shared terms, once each v
        is divided by its exemplar's norm. A built index's v already is: the
        weight c·idf/‖e‖. A grown one's v is the count c, so the pass also
        multiplies by the idf computed from N and df here, then divides each
        nonzero bound by the norm from the sums that append keeps: as
        idf = A - ln(1 + df) with A = ln(1 + N) + 1, the squared norm is
        A² S0 - 2A S1 + S2. It takes off _NORM_SLACK (A² S0 + 2A S1 + S2)
        and never goes below S0, the squared norm if every idf were 1, so
        the bound differs from _score's cosine by rounding and that slack.
        The keyword part adds (1 - alpha) j / (|Kq| + kc - j), with kc the
        exemplar's keyword count and j the query keywords that list it in
        _keyword_postings. A built index lists it under its own keywords, so
        j is the exact overlap; a grown one under all of its terms, which
        hold its keywords, so j can only be larger. Either way j <= kc =
        min(keyword_count, distinct terms), as |Kq| <= keyword_count.
        """
        q_weights, q_norm, q_keywords = query
        n = len(self.exemplars)
        postings, values, moments = self._postings, self._values, self._moments
        bounds = [0.0] * n
        for t, q_weight in q_weights.items():
            positions = postings.get(t)
            if positions is None:
                continue
            factor = alpha * q_weight / q_norm
            if moments is not None:  # a grown index's values are counts
                factor *= _idf(n, len(positions))
            for position, v in zip(positions, values[t]):
                bounds[position] += factor * v
        if moments is not None:
            a = math.log(1 + n) + 1.0
            s0s, s1s, s2s = moments
            for position, bound in enumerate(bounds):
                if bound:
                    s0 = s0s[position]
                    a0 = a * a * s0
                    a1 = 2.0 * a * s1s[position]
                    a2 = s2s[position]
                    squared = a0 - a1 + a2 - _NORM_SLACK * (a0 + a1 + a2)
                    bounds[position] = bound / math.sqrt(squared if squared > s0 else s0)
        keyword_sizes, q_keyword_count = self._keyword_sizes, len(q_keywords)
        found = Counter(p for t in q_keywords for p in self._keyword_postings.get(t, ()))
        for position, j in found.items():
            kc = keyword_sizes[position]
            bounds[position] += (1.0 - alpha) * j / (q_keyword_count + kc - j)
        return bounds


def build_index(
    pool: Iterable[tuple[str, str, str, int]],
    keyword_count: int = DEFAULT_KEYWORD_COUNT,
) -> ExemplarIndex:
    """Build an index from (source, target, doc_id, seg_index) tuples.

    Term weights are tf-idf with idf = ln((1 + N) / (1 + df)) + 1; keywords
    are the keyword_count terms of highest weight, extracted against the
    finished frequency table. It holds one vector per exemplar, weighed
    before it returns, in place of the norm sums, and takes no appends. Each
    posting's value is its exemplar's weight c·idf/‖e‖, and its keyword
    postings list, per term, the exemplars that hold it as a keyword, so
    its bounds are exact. It also maps each source to its vector; equal
    sources have equal counts and so equal vectors, weighed once, and top_k
    reads a query that is a pool source from that map instead of weighing it.
    """
    index = ExemplarIndex(keyword_count)
    index._moments = None  # a built index's values are normalized weights
    for source, target, doc_id, seg_index in pool:
        index.append(source, target, doc_id, seg_index)
    by_source = index._source_vectors
    for ex in index.exemplars:
        if ex.source not in by_source:
            by_source[ex.source] = index._weigh(ex.term_counts)
    index._vectors = vectors = [by_source[ex.source] for ex in index.exemplars]
    index._values = {
        t: [vectors[p][0][t] / vectors[p][1] for p in positions]
        for t, positions in index._postings.items()
    }
    index._keyword_postings = keyword_postings = {}
    for position, (_weights, _length, keywords) in enumerate(vectors):
        for t in keywords:
            keyword_postings.setdefault(t, []).append(position)
    return index


def _cosine(u: dict[str, float], norm_u: float, v: dict[str, float], norm_v: float) -> float:
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    shared = list(filter(v.__contains__, u))
    dot = sum(map(mul, map(u.__getitem__, shared), map(v.__getitem__, shared)))
    return dot / (norm_u * norm_v)


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    return len(a & b) / len(a | b)


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
    q = index._source_vectors.get(query) or index._weigh(Counter(terms(query)))
    bounds = index._bounds(q, alpha)
    vectors = index._vectors
    kth: list[float] = []  # min-heap of the k best exact scores so far
    scored = []
    positions = compress(range(len(bounds)), bounds)  # a bound of 0 scores 0
    for position in sorted(positions, key=bounds.__getitem__, reverse=True):
        if len(kth) == k and bounds[position] < kth[0] - _BOUND_MARGIN:
            break  # no later candidate can reach the k-th best score
        ex = index.exemplars[position]
        if exclude is not None and exclude(ex.doc_id, ex.seg_index):
            continue
        vector = index._weigh(ex.term_counts) if vectors is None else vectors[position]
        score = _score(q, vector, alpha)[0]
        if score > 0.0:
            scored.append((score, ex))
            if len(kth) < k:
                heapq.heappush(kth, score)
            else:
                heapq.heappushpop(kth, score)
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

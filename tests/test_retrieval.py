import copy
import gc
import math
import random
import string
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littrans import retrieval
from littrans.backend import IdentityBackend
from littrans.decoder import DecodingConfig, exclude_at_or_after, translate_document
from littrans.retrieval import (
    ExemplarIndex,
    build_index,
    pool_from_pairs,
    similarity,
    top_k,
)
from littrans.stages import build_stage3_instructions
from littrans.tokenization import terms
from util import (
    brute_force_scores,
    brute_force_top_k,
    full_scan_top_k,
    make_corpus,
    make_document,
    per_term_cosine,
    per_term_norm,
    per_term_vector,
    random_words,
    source_doc_freq,
)

# toy pool used by the hand-computed cases:
#   df(a)=2 df(b)=2 df(c)=2 df(d)=1, N=3
#   idf(a)=idf(b)=idf(c)=ln(4/3)+1, idf(d)=ln(2)+1
TOY_POOL = [
    ("a b", "A B", "p", 0),
    ("b c", "B C", "p", 1),
    ("c d a", "C D A", "q", 0),
]


@pytest.fixture()
def toy_index():
    return build_index(TOY_POOL)


def grown_index(pool):
    index = ExemplarIndex()
    for source, target, doc_id, seg_index in pool:
        index.append(source, target, doc_id, seg_index)
    return index


def test_build_index_df_table(toy_index):
    # oracle: manual document-frequency count over the three sources
    assert source_doc_freq(toy_index) == {"a": 2, "b": 2, "c": 2, "d": 1}
    assert toy_index.total_docs == 3
    weights = toy_index._weigh(Counter(["a", "d", "unseen"]))[0]
    assert math.isclose(weights["a"], math.log(4 / 3) + 1)
    assert math.isclose(weights["d"], math.log(2) + 1)
    assert math.isclose(weights["unseen"], math.log(4) + 1)


def test_build_index_weights(toy_index):
    ex = toy_index.exemplars[2]  # "c d a"
    assert ex.term_counts == {"c": 1, "d": 1, "a": 1}
    w = math.log(4 / 3) + 1
    wd = math.log(2) + 1
    weights = toy_index._weigh(Counter(terms(ex.source)))[0]
    assert weights == pytest.approx({"c": w, "d": wd, "a": w})
    assert set(weights) <= set(source_doc_freq(toy_index))


def test_empty_pool():
    index = build_index([])
    assert index.total_docs == 0
    assert top_k("anything", index, 3) == []


def test_identical_sentences_identical_weights():
    index = build_index([("x y", "t", "a", 0), ("x y", "t", "b", 0)])
    first, second = index.exemplars
    assert first.term_counts == second.term_counts
    assert similarity("x y", first, index) == similarity("x y", second, index)


def test_keywords_rare_term_first():
    # every term of the query except "d" appears in 2 of 3 exemplars
    assert build_index(TOY_POOL, 1)._weigh(Counter(terms("a b d c")))[2] == {"d"}


def test_keywords_tf_idf_ranking():
    # oracle: manual tf-idf table; weights a=w, b=2w, c=w with equal idf,
    # so b leads and the a/c tie breaks by first occurrence
    assert build_index(TOY_POOL, 2)._weigh(Counter(terms("a b b c")))[2] == {"b", "a"}
    assert build_index(TOY_POOL, 5)._weigh(Counter(terms("a b b c")))[2] == {"b", "a", "c"}


def test_keywords_empty_sentence(toy_index):
    assert toy_index._weigh(Counter())[2] == frozenset()
    assert similarity("", toy_index.exemplars[0], toy_index).combined == 0.0


def test_keywords_m_validation():
    with pytest.raises(ValueError):
        ExemplarIndex(0)


def test_self_similarity_is_one(toy_index):
    for ex in toy_index.exemplars:
        score = similarity(ex.source, ex, toy_index)
        assert score.lexical == pytest.approx(1.0)
        assert score.keyword == pytest.approx(1.0)
        assert score.combined == pytest.approx(1.0)


def test_disjoint_similarity_is_zero(toy_index):
    score = similarity("z z z", toy_index.exemplars[0], toy_index)
    assert score.combined == 0.0


def test_similarity_hand_computed(toy_index):
    # oracle: manual vector arithmetic; query "a b" vs exemplar "b c" has
    # all weights equal, so cosine = 1/2 exactly; keywords {a,b} vs {b,c}
    # give Jaccard 1/3; alpha 0.5 blends to 5/12
    score = similarity("a b", toy_index.exemplars[1], toy_index, alpha=0.5)
    assert score.lexical == pytest.approx(0.5)
    assert score.keyword == pytest.approx(1 / 3)
    assert score.combined == pytest.approx(5 / 12)


def test_similarity_alpha_blend(toy_index):
    ex = toy_index.exemplars[1]
    for alpha in (0.0, 0.25, 1.0):
        s = similarity("a b", ex, toy_index, alpha=alpha)
        assert s.combined == pytest.approx(alpha * s.lexical + (1 - alpha) * s.keyword)
    with pytest.raises(ValueError):
        similarity("a b", ex, toy_index, alpha=1.5)


def test_cosine_symmetry():
    index_fwd = build_index([("a b c", "t", "x", 0)])
    index_bwd = build_index([("b c d", "t", "x", 0)])
    fwd = similarity("b c d", index_fwd.exemplars[0], index_fwd).lexical
    bwd = similarity("a b c", index_bwd.exemplars[0], index_bwd).lexical
    assert fwd == pytest.approx(bwd)


def test_top_k_zero_k(toy_index):
    assert top_k("a b", toy_index, 0) == []


def test_top_k_negative_k_is_error(toy_index):
    with pytest.raises(ValueError, match="k must be >= 0"):
        top_k("a b", toy_index, -1)


def test_top_k_exclude_everything(toy_index):
    assert top_k("a b", toy_index, 2, exclude=lambda d, s: True) == []


def test_top_k_never_returns_excluded(toy_index):
    hits = top_k("a b c d", toy_index, 3, exclude=lambda d, s: d == "p")
    assert hits and all(ex.doc_id != "p" for ex in hits)


def test_top_k_zero_scores_dropped(toy_index):
    assert top_k("zzz qqq", toy_index, 3) == []


def test_top_k_matches_brute_force_on_toy(toy_index):
    # oracle: brute-force score of all exemplars and sort
    for query in ("a b", "c d", "a b b c", "d", "b"):
        mine = [e.exemplar_id for e in top_k(query, toy_index, 2)]
        oracle = [e.exemplar_id for e in brute_force_top_k(query, toy_index, 2)]
        assert mine == oracle, query


def test_top_k_four_exemplars_best_two():
    # oracle: brute-force score of all 4 and sort
    index = build_index(TOY_POOL + [("x y", "X Y", "r", 0)])
    hits = top_k("a b", index, 2)
    oracle = brute_force_top_k("a b", index, 2)
    assert [e.exemplar_id for e in hits] == [e.exemplar_id for e in oracle]
    assert [e.exemplar_id for e in hits] == ["p:0", "p:1"]  # hand-ranked best two
    assert all(e.doc_id != "r" for e in hits)  # disjoint "x y" never surfaces


def test_top_k_sorted_and_deterministic(toy_index):
    hits = top_k("a b c", toy_index, 3)
    scores = [similarity("a b c", e, toy_index).combined for e in hits]
    assert scores == sorted(scores, reverse=True)
    again = top_k("a b c", toy_index, 3)
    assert [e.exemplar_id for e in hits] == [e.exemplar_id for e in again]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 5))
# two candidates tie on score; the oracle's floats differ by an ulp
@example(5211, 26, 2)
def test_top_k_brute_force_equivalence_random(seed, pool_size, k):
    rng = random.Random(seed)
    vocab = list(string.ascii_lowercase[:10])
    pool = [
        (random_words(rng, vocab), "t", f"d{rng.randint(0, 3)}", i)
        for i in range(pool_size)
    ]
    index = build_index(pool)
    query = random_words(rng, vocab)
    exclude = (lambda d, s: s % 2 == 0) if rng.random() < 0.5 else None
    mine = [e.exemplar_id for e in top_k(query, index, k, exclude=exclude)]
    oracle = [e.exemplar_id for e in brute_force_top_k(query, index, k, exclude=exclude)]
    if mine == oracle:
        return
    # the oracle sums in another order, so candidates whose scores are equal
    # can differ in the last bit and break the tie the other way: compare the
    # oracle's scores of both pick lists, position by position
    scores = {
        ex.exemplar_id: score for score, ex in brute_force_scores(query, index, exclude)
    }
    assert [scores[i] for i in mine] == pytest.approx(
        [scores[i] for i in oracle], rel=0, abs=1e-12
    )


def test_index_grows_by_append():
    index = ExemplarIndex()
    index.append("a b", "A B", "d", 0)
    assert index.total_docs == 1
    assert [e.seg_index for e in top_k("a", index, 1)] == [0]
    index.append("b c", "B C", "d", 1)
    assert index.total_docs == 2
    assert source_doc_freq(index) == {"a": 1, "b": 2, "c": 1}
    # the append changed N, so every weight follows the new table
    w = math.log(3 / 2) + 1
    assert index._weigh(Counter(terms("a b c")))[0] == pytest.approx({"a": w, "b": 1.0, "c": w})
    hits = top_k("b c", index, 1)
    assert hits[0].seg_index == 1


def test_append_keeps_every_earlier_exemplar():
    index = ExemplarIndex()
    kept = []
    for i, source in enumerate(["a b", "b c", "c d a", "d"]):
        kept.append(index.append(source, source.upper(), "d", i))
        top_k(source, index, 2)
        assert all(a is b for a, b in zip(index.exemplars, kept, strict=True))


def snapshot(index):
    return {name: (value, copy.deepcopy(value)) for name, value in vars(index).items()}


def assert_unchanged(index, before):
    assert vars(index).keys() == before.keys()
    for name, (value, copied) in before.items():
        assert vars(index)[name] is value
        assert value == copied, name
        if isinstance(value, dict):  # Counter equality ignores zero counts
            assert value.keys() == copied.keys(), name


def assert_queries_leave_unwritten(index):
    before = snapshot(index)
    top_k("a b c unseen", index, 2)  # weighs a term outside the pool
    top_k("d", index, 3, exclude=lambda d, s: d == "p")
    for ex in index.exemplars:
        similarity("c a", ex, index)
    assert_unchanged(index, before)


def test_queries_leave_a_built_index_unwritten(toy_index):
    # nothing a query does may write a built index: run_corpus threads
    # share one
    assert_queries_leave_unwritten(toy_index)


def test_queries_leave_a_grown_index_unwritten():
    # only append writes a grown index, so its first query finds the norm
    # sums already kept
    assert_queries_leave_unwritten(grown_index(TOY_POOL))


@pytest.mark.parametrize("pool", [TOY_POOL, []])
def test_a_built_index_takes_no_appends(pool):
    index = build_index(pool)
    before = snapshot(index)
    with pytest.raises(ValueError, match="a built index takes no appends"):
        index.append("a b", "A B", "r", 0)
    assert_unchanged(index, before)


def test_build_index_rejects_empty_source():
    with pytest.raises(ValueError):
        build_index([("  ", "t", "d", 0)])


def test_concurrent_queries_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(3)
    vocab = list(string.ascii_lowercase[:8])
    pool = [(random_words(rng, vocab), "t", "d", i) for i in range(40)]
    index = build_index(pool)
    queries = [random_words(rng, vocab) for _ in range(50)]
    expected = [[e.exemplar_id for e in top_k(q, index, 3)] for q in queries]
    with ThreadPoolExecutor(max_workers=8) as pool_exec:
        got = list(pool_exec.map(lambda q: [e.exemplar_id for e in top_k(q, index, 3)], queries))
    assert got == expected


# --- term splits: each sentence is split once per index build or query ---

def count_term_splits(monkeypatch):
    calls = []
    split = retrieval.terms

    def counting(text):
        calls.append(text)
        return split(text)

    monkeypatch.setattr(retrieval, "terms", counting)
    return calls


def sixty_sentences():
    rng = random.Random(11)
    vocab = list(string.ascii_lowercase[:12])
    return [(random_words(rng, vocab), f"t{i}") for i in range(60)]


def test_decoding_splits_each_sentence_at_most_twice(monkeypatch):
    # once as the query, once when it joins the document's own prefix
    doc = make_document("d", [source for source, _target in sixty_sentences()])
    calls = count_term_splits(monkeypatch)
    config = DecodingConfig(history_size=0, exemplar_count=2, backoff_initial=0)
    result = translate_document(doc, IdentityBackend(), config=config)
    assert any(t.exemplar_ids for t in result.traces)
    assert len(calls) <= 2 * 60


def test_stage3_splits_each_pair_at_most_twice(monkeypatch):
    # once into the corpus-wide index, once as the query
    corpus = make_corpus([make_document("d", sixty_sentences())])
    calls = count_term_splits(monkeypatch)
    index = build_index(pool_from_pairs(corpus.documents[0].pairs()))
    config = DecodingConfig(history_size=1, exemplar_count=2)
    records = build_stage3_instructions(corpus, config, index)
    assert len(records) == 60
    assert len(calls) <= 2 * 60


# --- a built pool's own sources: queried with the vectors it holds ---

# 30 tie-prone sentences, then 10 of them again, over three documents, so
# some sources recur within a document and across documents
_rng = random.Random(5)
_SOURCES = [random_words(_rng, list("abcdef"), 1, 6) for _ in range(30)]
DUPLICATES_POOL = [
    (source, "t", f"d{i % 3}", i // 3) for i, source in enumerate(_SOURCES + _SOURCES[::3])
]


@pytest.mark.parametrize("keyword_count", [1, 5])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_member_queries_equal_full_scan_on_a_pool_with_duplicates(k, alpha, keyword_count):
    assert len({source for source, *_rest in DUPLICATES_POOL}) < len(DUPLICATES_POOL)
    index = build_index(DUPLICATES_POOL, keyword_count)
    for source, _target, doc_id, seg_index in DUPLICATES_POOL:
        for exclude in (None, exclude_at_or_after(doc_id, seg_index)):
            assert ids(top_k(source, index, k, exclude=exclude, alpha=alpha)) == ids(
                full_scan_top_k(source, index, k, exclude=exclude, alpha=alpha)
            ), (doc_id, seg_index, exclude)


def test_a_built_pool_weighs_each_distinct_source_once():
    index = build_index(DUPLICATES_POOL)
    assert index._source_vectors.keys() == {source for source, *_rest in DUPLICATES_POOL}
    for position, (source, *_rest) in enumerate(DUPLICATES_POOL):
        assert index._vectors[position] is index._source_vectors[source]


def test_only_a_non_member_query_on_a_built_pool_is_tokenized(monkeypatch):
    index = build_index(DUPLICATES_POOL)
    calls = count_term_splits(monkeypatch)
    for source, *_rest in DUPLICATES_POOL:
        top_k(source, index, 2)
    assert calls == []
    non_members = ["a b g", "f e d c b a f"]  # a term outside the pool; pool terms only
    assert not set(non_members) & set(_SOURCES)
    for query in non_members:
        top_k(query, index, 2)
    assert calls == non_members


def test_every_query_on_a_grown_index_is_tokenized(monkeypatch):
    # every append changes N and so every vector: nothing can be reused
    index = grown_index(DUPLICATES_POOL)
    calls = count_term_splits(monkeypatch)
    queries = [source for source, *_rest in DUPLICATES_POOL] + ["a b g"]
    for query in queries:
        top_k(query, index, 2)
    assert calls == queries


# --- bound-and-rescore: the same ids as a full scan, fewer exemplars scored ---

# six terms and short sentences, so equal scores are common
tie_prone_sentences = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6).map(" ".join),
    min_size=1,
    max_size=30,
)
alphas = st.sampled_from([0.0, 0.5, 1.0])


def ids(exemplars):
    return [e.exemplar_id for e in exemplars]


@settings(max_examples=100, deadline=None)
@given(tie_prone_sentences, alphas, st.integers(1, 3), st.integers(1, 5))
def test_top_k_equals_full_scan_on_a_growing_index(sentences, alpha, k, keyword_count):
    index = ExemplarIndex(keyword_count)
    for i, source in enumerate(sentences):
        exclude = exclude_at_or_after("d", i)
        assert ids(top_k(source, index, k, exclude=exclude, alpha=alpha)) == ids(
            full_scan_top_k(source, index, k, exclude=exclude, alpha=alpha)
        ), i
        index.append(source, source.upper(), "d", i)


@settings(max_examples=100, deadline=None)
@given(tie_prone_sentences, alphas, st.integers(1, 3), st.integers(1, 5))
def test_top_k_equals_full_scan_on_a_built_index(sentences, alpha, k, keyword_count):
    # three documents, as stage 3 queries the corpus-wide index
    pool = [(source, "t", f"d{i % 3}", i // 3) for i, source in enumerate(sentences)]
    index = build_index(pool, keyword_count)
    for source, _target, doc_id, seg_index in pool:
        exclude = exclude_at_or_after(doc_id, seg_index)
        assert ids(top_k(source, index, k, exclude=exclude, alpha=alpha)) == ids(
            full_scan_top_k(source, index, k, exclude=exclude, alpha=alpha)
        ), (doc_id, seg_index)


def assert_bounds_cover_exact_scores(index, query, alpha, cosine_slack=1e-6):
    """Every bound covers its exact score, and only zero scores are left
    out; at alpha 1 the bound is the cosine, within cosine_slack of it."""
    q = index._weigh(Counter(terms(query)))
    bounds = index._bounds(q, alpha)
    assert len(bounds) == index.total_docs
    for position, bound in enumerate(bounds):
        score = retrieval._score(q, index._weigh(index.exemplars[position].term_counts), alpha)[0]
        if bound:
            assert bound >= score - 1e-9, (query, position)
            if alpha == 1.0:
                assert bound <= score + cosine_slack, (query, position)
        else:
            assert score == 0.0, (query, position)


@settings(max_examples=100, deadline=None)
@given(tie_prone_sentences, alphas, st.integers(1, 5))
def test_bounds_cover_exact_scores(sentences, alpha, keyword_count):
    # each query runs on a grown index, which holds no vectors: its bounds
    # take each norm from the moments
    index = ExemplarIndex(keyword_count)
    for i, source in enumerate(sentences):
        assert_bounds_cover_exact_scores(index, source, alpha)
        index.append(source, source.upper(), "d", i)


def test_bounds_cover_exact_scores_over_a_long_document():
    # a thousand appends keep the grown index's norms current: every 50th
    # query checks that their sums have not drifted out of the slack
    index = ExemplarIndex()
    for i, source in enumerate(zipf_sentences(1000, seed=7)):
        if i % 50 == 0:
            assert_bounds_cover_exact_scores(index, source, 1.0)
        index.append(source, source.upper(), "d", i)


@settings(max_examples=100, deadline=None)
@given(tie_prone_sentences, st.integers(1, 5))
def test_appends_keep_the_norm_sums(sentences, keyword_count):
    # S0 = Σc², S1 = Σc² ln(1 + df) and S2 = Σc² ln(1 + df)², with df
    # counted from the pool's sources
    index = ExemplarIndex(keyword_count)
    for i, source in enumerate(sentences):
        index.append(source, source.upper(), "d", i)
    doc_freq = source_doc_freq(index)
    s0, s1, s2 = index._moments
    for position, ex in enumerate(index.exemplars):
        counts = ex.term_counts
        assert s0[position] == sum(c * c for c in counts.values())
        want1 = sum(c * c * math.log(1 + doc_freq[t]) for t, c in counts.items())
        want2 = sum(c * c * math.log(1 + doc_freq[t]) ** 2 for t, c in counts.items())
        assert math.isclose(s1[position], want1, rel_tol=1e-9), position
        assert math.isclose(s2[position], want2, rel_tol=1e-9), position


@settings(max_examples=100, deadline=None)
@given(tie_prone_sentences, tie_prone_sentences, alphas, st.integers(1, 5))
def test_bounds_cover_exact_scores_on_a_built_index(sentences, queries, alpha, keyword_count):
    # a built index bounds with weights normalized by each exemplar's exact
    # norm, so at alpha 1 the bound is the exact cosine, summed in another
    # order; "g" is outside the pool
    index = build_index([(source, "t", "d", i) for i, source in enumerate(sentences)], keyword_count)
    for query in sentences + queries + ["a g", "g"]:
        assert_bounds_cover_exact_scores(index, query, alpha, cosine_slack=1e-9)


def test_a_built_corpus_pool_equals_full_scan():
    # six documents of 100 zh-like sentences, as stage 3 indexes a corpus:
    # "。" puts every exemplar on one postings list, which the tie-prone
    # pools never do
    sentences = zipf_sentences(600, seed=11)
    pool = [(source, "t", f"d{i // 100}", i % 100) for i, source in enumerate(sentences)]
    index = build_index(pool)
    assert len(index._postings["。"]) == len(pool)
    for source, _target, doc_id, seg_index in random.Random(11).sample(pool, 20):
        exclude = exclude_at_or_after(doc_id, seg_index)
        for alpha in (0.0, 0.5, 1.0):
            assert ids(top_k(source, index, 5, exclude=exclude, alpha=alpha)) == ids(
                full_scan_top_k(source, index, 5, exclude=exclude, alpha=alpha)
            ), (doc_id, seg_index, alpha)
            assert_bounds_cover_exact_scores(index, source, alpha, cosine_slack=1e-9)


@pytest.mark.parametrize("make_index", [build_index, grown_index])
def test_a_query_without_terms_returns_nothing(make_index):
    index = make_index(TOY_POOL)
    for query in ("", "   "):
        for k in (1, 3):
            for alpha in (0.0, 0.5, 1.0):
                assert top_k(query, index, k, alpha=alpha) == [], (query, k, alpha)


weight_dicts = st.dictionaries(
    st.sampled_from("abcdefgh"), st.floats(0.0, 1e3, allow_subnormal=False), max_size=8
)


@settings(max_examples=200, deadline=None)
@given(weight_dicts, weight_dicts)
def test_norm_and_cosine_equal_their_per_term_forms(u, v):
    norm_u, norm_v = retrieval._norm(u), retrieval._norm(v)
    assert norm_u == per_term_norm(u) and norm_v == per_term_norm(v)
    assert retrieval._cosine(u, norm_u, v, norm_v) == per_term_cosine(u, norm_u, v, norm_v)


@settings(max_examples=100, deadline=None)
@given(tie_prone_sentences, tie_prone_sentences, st.integers(1, 5))
def test_weighing_equals_its_per_term_form(sentences, queries, keyword_count):
    index = ExemplarIndex(keyword_count)
    for i, source in enumerate(sentences):
        index.append(source, source.upper(), "d", i)
    doc_freq = source_doc_freq(index)

    def idf(t):
        return retrieval._idf(index.total_docs, doc_freq[t])

    for query in sentences + queries + ["a g"]:
        counts = Counter(terms(query))
        expected = per_term_vector(counts, idf, keyword_count)
        for got in (index._weigh(counts), retrieval._weighed(counts, map(idf, counts), keyword_count)):
            assert got == expected
            assert list(got[0]) == list(expected[0])  # the order _norm sums in


def zipf_sentences(n, seed):
    """n zh-like sentences: Zipf-skewed words of one or two ideographs,
    sometimes "，" between words, "。" at the end."""
    rng = random.Random(seed)
    words = [
        "".join(chr(0x4E00 + rng.randrange(20000)) for _ in range(rng.randint(1, 2)))
        for _ in range(1500)
    ]
    skew = [1 / (rank + 1) ** 1.1 for rank in range(len(words))]
    sentences = []
    for _ in range(n):
        picked = rng.choices(words, skew, k=rng.randint(4, 14))
        text = picked[0] + "".join(("，" if rng.random() < 0.15 else "") + w for w in picked[1:])
        sentences.append(text + "。")
    return sentences


ZIPF_POOL = [(s, "t", f"d{i // 100}", i % 100) for i, s in enumerate(zipf_sentences(300, seed=7))]


def documented_grown_bounds(index, q, alpha):
    """A grown index's bounds as _bounds documents them, from norm sums
    recomputed with df counted from the pool's sources. The cosine part is
    alpha times the shared terms' dot product over ‖q‖ and the norm, whose
    square is A² S0 - 2A S1 + S2 less _NORM_SLACK (A² S0 + 2A S1 + S2),
    never below S0. The keyword part is (1 - alpha) j / (|Kq| + kc - j), with
    j the query keywords among the exemplar's terms and kc its keyword count."""
    n, doc_freq = index.total_docs, source_doc_freq(index)
    q_weights, q_norm, q_keywords = q
    a = math.log(1 + n) + 1.0
    bounds = []
    for ex in index.exemplars:
        counts = ex.term_counts
        logs = {t: math.log(1 + doc_freq[t]) for t in counts}
        dot = math.fsum(
            q_weights[t] * c * retrieval._idf(n, doc_freq[t]) for t, c in counts.items() if t in q_weights
        )
        s0 = sum(c * c for c in counts.values())
        a0 = a * a * s0
        a1 = 2.0 * a * math.fsum(c * c * logs[t] for t, c in counts.items())
        a2 = math.fsum(c * c * logs[t] ** 2 for t, c in counts.items())
        squared = max(a0 - a1 + a2 - retrieval._NORM_SLACK * (a0 + a1 + a2), s0)
        j, kc = len(q_keywords & counts.keys()), min(index.keyword_count, len(counts))
        keyword = j / (len(q_keywords) + kc - j)
        bounds.append(alpha * dot / (q_norm * math.sqrt(squared)) + (1.0 - alpha) * keyword)
    return bounds


# every term in every exemplar: each idf is 1, so the slack would take the
# squared norm below S0 but for the floor
SAME_TERMS_POOL = [(source, "t", "d", i) for i, source in enumerate(["a b", "b a", "a a b"])]


@pytest.mark.parametrize(
    "pool", [TOY_POOL, SAME_TERMS_POOL, ZIPF_POOL], ids=["toy", "same-terms", "zipf300"]
)
def test_both_kinds_share_postings_and_bound_as_documented(pool):
    # the same term positions on both kinds, and a grown index's values are
    # counts. A built index also lists each exemplar under its own keywords,
    # so its bound is its score up to rounding; a grown one reads its term
    # postings there, so its keyword part counts the query keywords among
    # the exemplar's terms. At alpha 1 the kinds agree: the slack and the S0
    # floor move a grown bound by about 1e-9 of itself, inside the covering
    # tests' tolerance, so the documented formula pins each one.
    grown, built = grown_index(pool), build_index(pool)
    assert grown._postings == built._postings
    for t, positions in grown._postings.items():
        assert grown._values[t] == [grown.exemplars[p].term_counts[t] for p in positions], t
    assert grown._keyword_postings is grown._postings
    keywords = [keyword_set for _weights, _norm, keyword_set in built._vectors]
    holders = {t: [p for p in positions if t in keywords[p]] for t, positions in built._postings.items()}
    assert built._keyword_postings == {t: positions for t, positions in holders.items() if positions}
    sources = [source for source, *_rest in pool]
    for query in random.Random(7).sample(sources, min(20, len(sources))) + ["a g"]:
        q = grown._weigh(Counter(terms(query)))
        assert q == built._weigh(Counter(terms(query)))
        for alpha in (0.0, 0.5, 1.0):
            got = grown._bounds(q, alpha)
            documented = documented_grown_bounds(grown, q, alpha)
            for position, bound in enumerate(got):
                assert math.isclose(bound, documented[position], rel_tol=1e-11), (query, alpha, position)
            assert_bounds_cover_exact_scores(grown, query, alpha)
            exact = built._bounds(q, alpha)
            for position, bound in enumerate(exact):
                score = retrieval._score(q, built._vectors[position], alpha)[0]
                assert (bound == 0.0) == (score == 0.0), (query, alpha, position)
                assert abs(bound - score) <= retrieval._BOUND_MARGIN, (query, alpha, position)
            if alpha == 1.0:
                assert [g == 0.0 for g in got] == [e == 0.0 for e in exact], query
                for position, (g, e) in enumerate(zip(got, exact, strict=True)):
                    assert math.isclose(g, e, rel_tol=0.0, abs_tol=1e-6), (query, position)


# a full scan scores every prefix exemplar, a share of 1.0 of the summed
# pool sizes; bounds with the exact norms leave 0.032 (1433 of 44850) on
# this document, the idf >= 1 lower bound on the norms 0.158 (7068)
PINNED_RESCORED_SHARE = 0.05


def test_decoding_rescores_a_fraction_of_the_prefix(monkeypatch):
    doc = make_document("d", zipf_sentences(300, seed=7))
    calls = []
    score = retrieval._score

    def counting(*args):
        calls.append(None)
        return score(*args)

    monkeypatch.setattr(retrieval, "_score", counting)
    config = DecodingConfig(history_size=0, exemplar_count=2, backoff_initial=0)
    result = translate_document(doc, IdentityBackend(), config=config)
    assert any(t.exemplar_ids for t in result.traces)
    assert len(calls) <= PINNED_RESCORED_SHARE * sum(range(300))


# stage 3 scores 300 queries against a built pool of 300, 90000 pairs in a
# full scan; exact bounds leave the 2 it returns per query, 0.0067 (600) of
# them, ties aside. Counting the query keywords among all of an exemplar's
# terms left 0.019 (1741), the idf >= 1 lower bound on the norms 0.115 (10368)
PINNED_STAGE3_RESCORED_SHARE = 0.01


def test_stage3_rescores_a_fraction_of_the_pool(monkeypatch):
    sentences = zipf_sentences(300, seed=7)
    docs = [
        make_document(f"d{i}", [(s, f"t{i}") for s in sentences[60 * i:60 * (i + 1)]])
        for i in range(5)
    ]
    corpus = make_corpus(docs)
    index = build_index(pool_from_pairs(p for doc in corpus.documents for p in doc.pairs()))
    calls = []
    score = retrieval._score

    def counting(*args):
        calls.append(None)
        return score(*args)

    monkeypatch.setattr(retrieval, "_score", counting)
    config = DecodingConfig(history_size=1, exemplar_count=2)
    records = build_stage3_instructions(corpus, config, index)
    assert len(records) == 300
    assert len(calls) <= PINNED_STAGE3_RESCORED_SHARE * 300 * 300


def test_a_dropped_index_is_freed_by_refcount_alone():
    # a reference cycle through the index would keep every finished
    # document's index alive until a full collection
    gc.disable()
    try:
        index = ExemplarIndex()
        for i, source in enumerate(["a b", "b c", "c d a", "d", "a b"]):
            top_k(source, index, 2)
            index.append(source, source.upper(), "d", i)
        similarity("a d", index.exemplars[0], index)
        alive = weakref.ref(index)
        del index
        assert alive() is None
    finally:
        gc.enable()

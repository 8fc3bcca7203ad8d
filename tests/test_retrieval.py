import copy
import math
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littrans import retrieval
from littrans.backend import IdentityBackend
from littrans.decoder import DecodingConfig, translate_document
from littrans.retrieval import (
    ExemplarIndex,
    build_index,
    extract_keywords,
    pool_from_pairs,
    similarity,
    top_k,
)
from littrans.stages import build_stage3_instructions
from util import brute_force_scores, brute_force_top_k, make_corpus, make_document, random_words

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


def test_build_index_df_table(toy_index):
    # oracle: manual document-frequency count over the three sources
    assert toy_index.doc_freq == {"a": 2, "b": 2, "c": 2, "d": 1}
    assert toy_index.total_docs == 3
    assert math.isclose(toy_index.idf("a"), math.log(4 / 3) + 1)
    assert math.isclose(toy_index.idf("d"), math.log(2) + 1)
    assert math.isclose(toy_index.idf("unseen"), math.log(4) + 1)


def test_build_index_weights(toy_index):
    ex = toy_index.exemplars[2]  # "c d a"
    assert ex.term_counts == {"c": 1, "d": 1, "a": 1}
    w = math.log(4 / 3) + 1
    wd = math.log(2) + 1
    weights = toy_index.weights(ex.source)
    assert weights == pytest.approx({"c": w, "d": wd, "a": w})
    assert set(weights) <= set(toy_index.doc_freq)


def test_empty_pool():
    index = build_index([])
    assert index.total_docs == 0
    assert top_k("anything", index, 3) == []


def test_identical_sentences_identical_weights():
    index = build_index([("x y", "t", "a", 0), ("x y", "t", "b", 0)])
    first, second = index.exemplars
    assert first.term_counts == second.term_counts
    assert similarity("x y", first, index) == similarity("x y", second, index)


def test_keywords_rare_term_first(toy_index):
    # every term of the query except "d" appears in 2 of 3 exemplars
    assert extract_keywords("a b d c", toy_index, 1) == ["d"]


def test_keywords_tf_idf_ranking(toy_index):
    # oracle: manual tf-idf table; weights a=w, b=2w, c=w with equal idf,
    # so b leads and the a/c tie breaks by first occurrence
    assert extract_keywords("a b b c", toy_index, 5) == ["b", "a", "c"]


def test_keywords_empty_sentence(toy_index):
    assert extract_keywords("", toy_index, 3) == []
    assert similarity("", toy_index.exemplars[0], toy_index).combined == 0.0


def test_keywords_m_validation(toy_index):
    with pytest.raises(ValueError):
        extract_keywords("a", toy_index, 0)


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
    assert index.doc_freq == {"a": 1, "b": 2, "c": 1}
    # the append changed N, so every weight follows the new table
    w = math.log(3 / 2) + 1
    assert index.weights("a b c") == pytest.approx({"a": w, "b": 1.0, "c": w})
    hits = top_k("b c", index, 1)
    assert hits[0].seg_index == 1


def test_append_keeps_every_earlier_exemplar():
    index = ExemplarIndex()
    kept = []
    for i, source in enumerate(["a b", "b c", "c d a", "d"]):
        kept.append(index.append(source, source.upper(), "d", i))
        top_k(source, index, 2)
        assert all(a is b for a, b in zip(index.exemplars, kept, strict=True))


def test_queries_leave_a_built_index_unwritten(toy_index):
    # nothing a query does may write a built index: run_corpus threads
    # share one
    before = {name: (value, copy.deepcopy(value)) for name, value in vars(toy_index).items()}
    top_k("a b c", toy_index, 2)
    top_k("d", toy_index, 3, exclude=lambda d, s: d == "p")
    for ex in toy_index.exemplars:
        similarity("c a", ex, toy_index)
    extract_keywords("a b d", toy_index, 2)
    assert vars(toy_index).keys() == before.keys()
    for name, (value, snapshot) in before.items():
        assert vars(toy_index)[name] is value
        assert value == snapshot, name


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

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littrans.backend import (
    MAX_WAIT,
    BackendError,
    IdentityBackend,
    ScriptedBackend,
    TableBackend,
)
from littrans.decoder import (
    DecodingConfig,
    DocumentAborted,
    build_prompt,
    clean_hypothesis,
    exclude_at_or_after,
    run_corpus,
    translate_document,
)
from littrans.prompts import ContextEntry, PromptTemplate, render
from littrans.retrieval import Exemplar, ExemplarIndex, build_index, similarity, top_k
from util import (
    CapturingBackend,
    brute_force_scores,
    brute_force_top_k,
    make_corpus,
    make_document,
    random_words,
)


def no_sleep(_delay):
    raise AssertionError("decoder slept unexpectedly")


def fast(**kwargs):
    kwargs.setdefault("backoff_initial", 0)
    return DecodingConfig(**kwargs)


# --- config validation ---

def test_config_validation():
    with pytest.raises(ValueError):
        DecodingConfig(history_size=-1)
    with pytest.raises(ValueError):
        DecodingConfig(similarity_alpha=1.5)
    with pytest.raises(ValueError):
        DecodingConfig(fallback="shrug")
    with pytest.raises(ValueError, match="decoding.retry"):
        DecodingConfig(max_attempts=0)
    with pytest.raises(ValueError, match="keyword_count"):
        DecodingConfig(keyword_count=0)


# --- build_prompt ---

def done_until(cursor):
    return [ContextEntry(i, f"src{i}", f"hyp{i}") for i in range(cursor)]


def test_prompt_cursor_zero_empty_context():
    spec = build_prompt("d", done_until(0), "s", [], fast(history_size=5))
    assert spec.context_block == ()


def test_prompt_window_last_two():
    spec = build_prompt("d", done_until(5), "s", [], fast(history_size=2))
    assert [e.seg_index for e in spec.context_block] == [3, 4]


def test_prompt_window_min_rule():
    spec = build_prompt("d", done_until(2), "s", [], fast(history_size=3))
    assert [e.seg_index for e in spec.context_block] == [0, 1]


def test_prompt_window_n_zero():
    spec = build_prompt("d", done_until(4), "s", [], fast(history_size=0))
    assert spec.context_block == ()


def hit(doc_id, seg_index):
    return Exemplar(f"{doc_id}:{seg_index}", doc_id, seg_index, "s", "t", {})


def test_prompt_rejects_future_exemplar():
    with pytest.raises(ValueError, match="strictly before"):
        build_prompt("d", done_until(2), "s", [hit("d", 2)], fast())
    spec = build_prompt("d", done_until(2), "s", [hit("e", 9)], fast())
    assert spec.exemplar_block == (ContextEntry(9, "s", "t"),)


def test_the_no_future_rule_starts_at_the_cursor_in_its_own_document():
    # the cursor is d#5: d#5 is rejected, d#4 just before it and e#5,
    # another document's sentence at the same seg_index, are kept
    exclude = exclude_at_or_after("d", 5)
    assert exclude("d", 5) and exclude("d", 6)
    assert not exclude("d", 4) and not exclude("e", 5)
    index = build_index([("a b", "t", "d", 4), ("a b", "t", "d", 5), ("a b", "t", "e", 5)])
    hits = top_k("a b", index, 3, exclude=exclude)
    assert [e.exemplar_id for e in hits] == ["d:4", "e:5"]


# --- hypothesis cleanup ---

@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  hello  ", "hello"),
        ('"hello"', "hello"),
        ("“hello”", "hello"),
        ("line one\n\nline two", "line one line two"),
        ('"outer "inner" outer"', 'outer "inner" outer'),
        ("plain", "plain"),
        ('""', ""),  # a pair of quotes around nothing
    ],
)
def test_clean_hypothesis(raw, expected):
    assert clean_hypothesis(raw) == expected


# --- translate_document ---

def doc_abc(doc_id="d"):
    return make_document(doc_id, ["alpha one", "beta two", "gamma three"])


def test_identity_backend_echoes_sources():
    result = translate_document(doc_abc(), IdentityBackend(), config=fast(), sleep=no_sleep)
    assert result.hypotheses == ("alpha one", "beta two", "gamma three")
    assert [t.seg_index for t in result.traces] == [0, 1, 2]
    assert all(t.attempts == ("ok",) for t in result.traces)


def test_scripted_outputs_in_order():
    script = {"alpha one": "A", "beta two": "B", "gamma three": "C"}
    result = translate_document(
        doc_abc(), ScriptedBackend(script), config=fast(), sleep=no_sleep
    )
    assert result.hypotheses == ("A", "B", "C")


def test_decoding_renders_no_prompt_the_backend_does_not(monkeypatch):
    # a backend that reads the PromptSpec alone needs no rendered text
    renders = []

    def counting_render(spec, template):
        renders.append(spec)
        return render(spec, template)

    monkeypatch.setattr("littrans.prompts.render", counting_render)
    doc = make_document("d", ["wind one", "wind two", "wind one two"])
    script = {"wind one": "A", "wind two": "B", "wind one two": "C"}
    result = translate_document(
        doc, ScriptedBackend(script), config=fast(exemplar_count=2), sleep=no_sleep
    )
    assert [len(t.exemplar_ids) for t in result.traces] == [0, 1, 2]
    assert renders == []


def test_retry_then_success():
    # oracle: scripted failure sequence; retry budget 2 -> second attempt wins
    script = {
        "alpha one": [{"error": "network"}, {"text": "A"}],
        "beta two": "B",
        "gamma three": "C",
    }
    slept = []
    result = translate_document(
        doc_abc(),
        ScriptedBackend(script),
        config=DecodingConfig(max_attempts=2, backoff_initial=0.5, backoff_factor=3),
        sleep=slept.append,
    )
    assert result.hypotheses[0] == "A"
    assert result.traces[0].attempts == ("network", "ok")
    assert not result.traces[0].failed
    assert slept == [0.5]


def test_backoff_schedule():
    script = {
        "alpha one": [{"error": "network"}, {"error": "rate_limit"}, {"text": "A"}],
        "beta two": "B",
        "gamma three": "C",
    }
    slept = []
    result = translate_document(
        doc_abc(),
        ScriptedBackend(script),
        config=DecodingConfig(max_attempts=3, backoff_initial=1.0, backoff_factor=2.0),
        sleep=slept.append,
    )
    assert result.hypotheses[0] == "A"
    assert slept == [1.0, 2.0]


def test_a_wait_beyond_the_maximum_ends_the_retries():
    # the first wait is exactly the maximum and is slept; the second would
    # be twice that, so the sentence falls back instead
    script = {"alpha one": [{"error": "network"}], "beta two": "B", "gamma three": "C"}
    slept = []
    result = translate_document(
        doc_abc(),
        ScriptedBackend(script),
        config=DecodingConfig(max_attempts=3, backoff_initial=MAX_WAIT, backoff_factor=2.0),
        sleep=slept.append,
    )
    assert slept == [MAX_WAIT]
    assert result.traces[0].attempts == ("network", "network")
    assert result.traces[0].failed and result.hypotheses[0] == "alpha one"
    assert result.hypotheses[1:] == ("B", "C")


def test_retry_exhaustion_copies_source():
    script = {
        "alpha one": [{"error": "network"}],
        "beta two": "B",
        "gamma three": "C",
    }
    result = translate_document(
        doc_abc(), ScriptedBackend(script), config=fast(max_attempts=2), sleep=lambda d: None
    )
    assert result.hypotheses[0] == "alpha one"
    assert result.traces[0].failed
    assert result.traces[0].attempts == ("network", "network")
    assert result.hypotheses[1:] == ("B", "C")  # document continues


def test_no_wait_follows_the_final_attempt():
    script = {"alpha one": [{"error": "network"}], "beta two": "B", "gamma three": "C"}
    slept = []
    result = translate_document(
        doc_abc(),
        ScriptedBackend(script),
        config=DecodingConfig(max_attempts=2, backoff_initial=0.5),
        sleep=slept.append,
    )
    assert result.traces[0].attempts == ("network", "network")
    assert slept == [0.5]  # between the two attempts, none after the last


def test_non_retryable_error_stops_immediately():
    script = {
        "alpha one": [{"error": "overlong_prompt"}, {"text": "never"}],
        "beta two": "B",
        "gamma three": "C",
    }
    result = translate_document(
        doc_abc(), ScriptedBackend(script), config=fast(max_attempts=3), sleep=no_sleep
    )
    assert result.traces[0].attempts == ("overlong_prompt",)
    assert result.hypotheses[0] == "alpha one"


def test_abort_policy_raises():
    script = {"alpha one": [{"error": "network"}], "beta two": "B", "gamma three": "C"}
    with pytest.raises(DocumentAborted):
        translate_document(
            doc_abc(),
            ScriptedBackend(script),
            config=fast(max_attempts=1, fallback="abort"),
            sleep=no_sleep,
        )


def test_empty_output_retries_then_falls_back():
    script = {"alpha one": "   ", "beta two": "B", "gamma three": "C"}
    result = translate_document(
        doc_abc(), ScriptedBackend(script), config=fast(max_attempts=2), sleep=lambda d: None
    )
    assert result.traces[0].attempts == ("empty_output", "empty_output")
    assert result.hypotheses[0] == "alpha one"


def test_a_quoted_empty_reply_is_empty_output():
    script = {"alpha one": [{"text": '""'}, {"text": "A"}], "beta two": "B", "gamma three": "C"}
    result = translate_document(
        doc_abc(), ScriptedBackend(script), config=fast(max_attempts=2), sleep=no_sleep
    )
    assert result.traces[0].attempts == ("empty_output", "ok")
    assert result.hypotheses[0] == "A"


def test_history_threads_into_prompts():
    config = fast(history_size=2, exemplar_count=0)
    capture = CapturingBackend(TableBackend({"alpha one": "A", "beta two": "B", "gamma three": "C"}), config.template)
    translate_document(doc_abc(), capture, config=config, sleep=no_sleep)
    assert capture.specs[0].context_block == ()
    assert [(e.source, e.translation) for e in capture.specs[1].context_block] == [
        ("alpha one", "A")
    ]
    assert [(e.source, e.translation) for e in capture.specs[2].context_block] == [
        ("alpha one", "A"),
        ("beta two", "B"),
    ]


@pytest.mark.parametrize("exemplar_count, built", [(0, 0), (1, 1)])
def test_own_prefix_index_only_when_exemplars_are_asked_for(monkeypatch, exemplar_count, built):
    made = []

    class RecordingIndex(ExemplarIndex):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr("littrans.decoder.ExemplarIndex", RecordingIndex)
    config = fast(exemplar_count=exemplar_count)
    translate_document(doc_abc(), IdentityBackend(), config=config, sleep=no_sleep)
    assert made == [(config.keyword_count,)] * built


def test_self_history_exemplars_use_hypotheses_not_references():
    # same-document mode: exemplar targets must be the model's own outputs
    doc = make_document(
        "d",
        [
            ("stone river stone", "REF0"),
            ("stone mountain", "REF1"),
            ("stone river flows", "REF2"),
        ],
    )
    table = TableBackend({
        "stone river stone": "HYP0",
        "stone mountain": "HYP1",
        "stone river flows": "HYP2",
    })
    config = fast(history_size=0, exemplar_count=2)
    capture = CapturingBackend(table, config.template)
    result = translate_document(doc, capture, index=None, config=config, sleep=no_sleep)
    assert result.hypotheses == ("HYP0", "HYP1", "HYP2")
    assert capture.specs[0].exemplar_block == ()
    for spec in capture.specs[1:]:
        for entry in spec.exemplar_block:
            assert entry.translation.startswith("HYP")
    # the most lexically similar prefix sentence is retrieved for seg 2
    assert any(
        e.source == "stone river stone" for e in capture.specs[2].exemplar_block
    )
    assert all(t.exemplar_ids for t in result.traces[1:])


def test_self_history_exemplars_honour_keyword_count():
    # keyword counts 1 and 5 rank the prefix differently for the last sentence
    sentences = [
        "stone river bright moon",
        "river moon night wind",
        "stone bright cold",
        "moon river stone wind cold",
        "night cold bright river",
    ]
    doc = make_document("d", sentences)
    ids = {}
    for kc in (1, 5):
        config = fast(history_size=0, exemplar_count=1, keyword_count=kc)
        result = translate_document(doc, IdentityBackend(), config=config, sleep=no_sleep)
        ids[kc] = [t.exemplar_ids for t in result.traces]
        for seg, source in enumerate(sentences):
            prefix = build_index(
                [(s, s, "d", i) for i, s in enumerate(sentences[:seg])], keyword_count=kc
            )
            expected = brute_force_top_k(source, prefix, 1)
            assert ids[kc][seg] == tuple(e.exemplar_id for e in expected)
    assert ids[1] != ids[5]


# a small vocabulary repeats terms within and across sentences, so tf > 1
# and tied scores are common
TIE_VOCAB = ["stone", "river", "moon", "wind", "山", "水"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 20),
    exemplar_count=st.integers(1, 3),
    keyword_count=st.integers(1, 5),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
)
# two prefix sentences tie on score for the last query; the oracle's floats differ by an ulp
@example(seed=12888, length=10, exemplar_count=2, keyword_count=1, alpha=1.0)
def test_self_history_exemplars_equal_brute_force(seed, length, exemplar_count, keyword_count, alpha):
    rng = random.Random(seed)
    sentences = [random_words(rng, TIE_VOCAB, 1, 6) for _ in range(length)]
    config = fast(
        history_size=0,
        exemplar_count=exemplar_count,
        keyword_count=keyword_count,
        similarity_alpha=alpha,
    )
    result = translate_document(
        make_document("d", sentences), IdentityBackend(), config=config, sleep=no_sleep
    )
    for seg, source in enumerate(sentences):
        prefix = build_index(
            [(s, s, "d", i) for i, s in enumerate(sentences[:seg])], keyword_count
        )
        ids = result.traces[seg].exemplar_ids
        # the grown prefix index picks exactly what an index built from the prefix picks
        rebuilt = top_k(source, prefix, exemplar_count, alpha=alpha)
        assert ids == tuple(e.exemplar_id for e in rebuilt)
        # the oracle sums in another order, so candidates whose scores are
        # equal can differ in the last bit and break the tie the other way:
        # compare the oracle's scores of the picks, position by position
        oracle = {
            ex.exemplar_id: score for score, ex in brute_force_scores(source, prefix, alpha=alpha)
        }
        expected = brute_force_top_k(source, prefix, exemplar_count, alpha=alpha)
        assert [oracle[i] for i in ids] == pytest.approx(
            [oracle[e.exemplar_id] for e in expected], rel=0, abs=1e-12
        )
        # top_k ranks by exactly the floats similarity() reports: sorting
        # the whole prefix by them, ties included, gives top_k's order
        combined = {
            ex.exemplar_id: similarity(source, ex, prefix, alpha).combined
            for ex in prefix.exemplars
        }
        by_similarity = sorted(
            (ex for ex in prefix.exemplars if combined[ex.exemplar_id] > 0.0),
            key=lambda ex: (-combined[ex.exemplar_id], ex.doc_id, ex.seg_index),
        )
        assert top_k(source, prefix, seg, alpha=alpha) == by_similarity


def test_reduction_prompts_equal_plain_sentence_prompts():
    config = fast(history_size=0, exemplar_count=0)
    capture = CapturingBackend(IdentityBackend(), config.template)
    doc = doc_abc()
    translate_document(doc, capture, config=config, sleep=no_sleep)
    template = config.template
    for pair, rendered in zip(doc.pairs(), capture.rendered):
        plain = template.main.format(
            system=template.system_section.format(system=template.system),
            context="",
            exemplars="",
            source=pair.source,
        )
        assert rendered == plain


# --- run_corpus ---

def corpus_two_docs():
    return make_corpus([
        make_document("a", ["a zero", "a one"]),
        make_document("b", ["b zero"]),
    ])


def test_run_corpus_parallelism_deterministic():
    corpus = corpus_two_docs()
    seq, _ = run_corpus(corpus, IdentityBackend(), config=fast(), parallelism=1)
    par, _ = run_corpus(corpus, IdentityBackend(), config=fast(), parallelism=4)
    assert seq == par
    assert [r.doc_id for r in seq] == ["a", "b"]


def test_run_corpus_empty():
    results, manifest = run_corpus(make_corpus([]), IdentityBackend(), config=fast())
    assert results == []
    assert manifest.documents == 0
    assert manifest.started <= manifest.finished


def test_run_corpus_one_abort_of_three():
    # oracle: scripted backend; only doc b's sentence fails
    corpus = make_corpus([
        make_document("a", ["a zero"]),
        make_document("b", ["b zero"]),
        make_document("c", ["c zero"]),
    ])
    script = {
        "a zero": "A",
        "b zero": [{"error": "network"}],
        "c zero": "C",
    }
    results, manifest = run_corpus(
        corpus,
        ScriptedBackend(script),
        config=fast(max_attempts=1, fallback="abort"),
        parallelism=2,
    )
    assert [r.doc_id for r in results] == ["a", "c"]
    assert manifest.aborted_documents == ["b"]
    assert manifest.translated_documents == 2
    assert manifest.failed_sentences == 0


class FailOnBackend:
    """Echoes sources, records them, and raises an unexpected error on one."""

    def __init__(self, fail_on):
        self.fail_on = fail_on
        self.seen = []

    def translate(self, prompt):
        self.seen.append(prompt.current_source)
        if prompt.current_source == self.fail_on:
            raise RuntimeError("backend bug")
        return prompt.current_source


def test_run_corpus_unexpected_error_starts_no_further_document():
    # the failure comes after the caller is already waiting on document a,
    # so the worker could dequeue document b before the caller reacts
    sentences = {d: [f"{d} {i}" for i in range(30)] for d in "abcd"}
    corpus = make_corpus([make_document(d, s) for d, s in sentences.items()])
    for _ in range(5):
        backend = FailOnBackend("a 29")
        with pytest.raises(RuntimeError, match="backend bug"):
            run_corpus(corpus, backend, config=fast(), parallelism=1)
        assert backend.seen == sentences["a"]


def test_manifest_counts_failures():
    corpus = make_corpus([make_document("a", ["a zero", "a one"])])
    script = {"a zero": [{"error": "network"}], "a one": "fine"}
    results, manifest = run_corpus(
        corpus, ScriptedBackend(script), config=fast(max_attempts=1)
    )
    assert manifest.failed_sentences == 1
    assert manifest.sentences == 2
    assert results[0].traces[0].failed


def test_window_invariant_random_documents():
    rng = random.Random(13)
    for n in (0, 1, 3):
        for _ in range(5):
            length = rng.randint(1, 12)
            doc = make_document("d", [f"unique{i} token{i}" for i in range(length)])
            config = fast(history_size=n, exemplar_count=0)
            capture = CapturingBackend(IdentityBackend(), config.template)
            translate_document(doc, capture, config=config, sleep=no_sleep)
            for seg, spec in enumerate(capture.specs):
                assert len(spec.context_block) == min(n, seg)

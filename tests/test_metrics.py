import itertools
import math
import random
import re
import string
import sys
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littrans import metrics
from littrans.metrics import (
    AlignmentError,
    BleuConfig,
    corpus_bleu,
    d_bleu,
    s_bleu,
    tokenize,
)
from util import naive_bleu, naive_tokenize_intl

WORDS = st.text(alphabet=string.ascii_lowercase[:8], min_size=1, max_size=4)
SENTENCES = st.lists(WORDS, min_size=1, max_size=12).map(" ".join)


# --- tokenizer ---

def test_tokenize_hello_world():
    # oracle: reference scorer's tokenizer on the same string
    assert tokenize("Hello, world.") == ["Hello", ",", "world", "."]


def test_tokenize_digit_internal_comma_kept():
    # oracle: reference scorer's tokenizer
    assert tokenize("It cost 2,000 dollars.") == ["It", "cost", "2,000", "dollars", "."]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   ") == []


def test_tokenize_reference_battery(bleu_fixture):
    # frozen outputs of the reference international tokenizer
    for case in bleu_fixture["tokenizer_cases"]:
        assert tokenize(case["text"]) == case["tokens"], case["text"]


@pytest.mark.parametrize(
    "text,tokens",
    [
        # No, No, Nl: punctuation between or after numbers stays attached
        ("½.", ["½."]),
        ("①,②", ["①,②"]),
        ("Ⅻ.", ["Ⅻ."]),
        # "²," is (number)(punct), so only (punct)(non-number) ",y" pads
        ("x²,y", ["x²", ",", "y"]),
    ],
)
def test_tokenize_number_categories_beyond_nd(text, tokens):
    assert tokenize(text) == tokens


def test_tokenize_hyphenated_line_break_joined():
    assert tokenize("co-\noperate now") == ["cooperate", "now"]


def test_tokenize_control_chars_become_spaces():
    assert tokenize("a\tb\nc") == ["a", "b", "c"]


def test_tokenize_character_mode():
    assert tokenize("山风 abc", mode="character") == ["山", "风", "a", "b", "c"]
    assert tokenize("", mode="character") == []


def test_tokenize_lowercase():
    assert tokenize("The Cat", lowercase=True) == ["the", "cat"]


def test_tokenize_rejects_unknown_mode():
    with pytest.raises(ValueError):
        tokenize("x", mode="words")


# text the padding rules act on: punctuation, symbols, numbers, control
# characters, whitespace and hyphenated line breaks, mixed with any code point
RULE_TEXT = st.lists(
    st.one_of(
        st.characters(whitelist_categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po")),
        st.characters(whitelist_categories=("Sm", "Sc", "Sk", "So")),
        st.characters(whitelist_categories=("Nd", "Nl", "No")),
        st.characters(whitelist_categories=("Cc",)),
        st.sampled_from([" ", "\t", "\n", "\u3000", "\u2028", "-\n", "-"]),
        # non-printable but not Cc (Zs, Cf, Cf, Zp, Co): text the control
        # pass skips only when it holds no Cc character
        st.sampled_from(["\u00a0", "\u200b", "\ufeff", "\u2029", "\ue000"]),
        st.characters(),
    ),
    max_size=24,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(RULE_TEXT, st.booleans())
def test_tokenize_matches_per_character_oracle(text, lowercase):
    assert tokenize(text, lowercase=lowercase) == naive_tokenize_intl(text, lowercase)


def test_tokenize_control_next_to_a_non_control_space():
    # U+3000 alone would also make the text non-printable; the BEL beside it
    # must still become a space, not stay inside the token "x\x07"
    text = "x\x07\u3000y."
    assert tokenize(text) == naive_tokenize_intl(text) == ["x", "y", "."]


def _class_letter(category: str) -> str:
    return {"N": "d", "P": "p", "S": "s"}.get(category[0], "o")


def test_class_letters_follow_unicode_categories_for_every_code_point():
    # a fresh table per plane keeps the memory of the check small
    for start in range(0, sys.maxunicode + 1, 0x10000):
        text = "".join(map(chr, range(start, start + 0x10000)))
        expected = "".join(_class_letter(unicodedata.category(c)) for c in text)
        assert text.translate(metrics._CharClasses()) == expected, hex(start)


def test_number_class_is_every_number_category_not_backslash_d():
    # mteval-v14 pads on \P{N}; Python's \d matches only Nd, so a tokenizer
    # built on \d would split fractions, superscripts and Roman numerals
    numbers = {c for c in range(sys.maxunicode + 1) if unicodedata.category(chr(c))[0] == "N"}
    digits = {c for c in numbers if re.fullmatch(r"\d", chr(c))}
    assert {"½", "²", "Ⅻ", "①"} <= set(map(chr, numbers - digits))
    text = "".join(map(chr, sorted(numbers)))
    assert set(text.translate(metrics._CharClasses())) == {"d"}


def test_control_table_is_exactly_category_cc():
    controls = [c for c in range(sys.maxunicode + 1) if unicodedata.category(chr(c)) == "Cc"]
    assert len(controls) == 65
    assert metrics._CONTROLS == dict.fromkeys(controls, " ")


def test_padding_equals_the_template_substitutions_on_every_class_string():
    after, before = re.compile("([^d])(p)"), re.compile("(p)([^d])")
    for length in range(9):
        for letters in itertools.product("dpso", repeat=length):
            classes = "".join(letters)
            expected = before.sub(r" \1 \2", after.sub(r"\1 \2 ", classes))
            assert metrics._pad_punctuation(classes) == expected, classes


def test_bleu_tokenizes_through_the_module_global_in_key_order(monkeypatch):
    # perfbench times evaluate by wrapping littrans.metrics.tokenize, so both
    # scorers must call it through the module, hypothesis before reference
    seen = []

    def recorder(text, *args, **kwargs):
        seen.append(text)
        return tokenize(text, *args, **kwargs)

    monkeypatch.setattr(metrics, "tokenize", recorder)
    keys = [("b", 0), ("a", 1), ("a", 0)]
    hyp = {k: f"h {k[0]}{k[1]}." for k in keys}
    ref = {k: f"r {k[0]}{k[1]}." for k in reversed(keys)}
    s_bleu(hyp, ref)
    assert seen == ["h a0.", "r a0.", "h a1.", "r a1.", "h b0.", "r b0."]
    seen.clear()
    d_bleu(hyp, ref)
    assert seen == ["h a0. h a1.", "r a0. r a1.", "h b0.", "r b0."]


# --- corpus_bleu on frozen handcrafted cases ---

def test_handcrafted_cases(bleu_fixture):
    for case in bleu_fixture["handcrafted_cases"]:
        config = BleuConfig(smoothing=case["smoothing"])
        report = corpus_bleu(case["hypotheses"], case["references"], config)
        if case["score"] == 0.0:
            assert report.score == 0.0, case["name"]
        else:
            assert report.score == pytest.approx(case["score"], rel=1e-6), case["name"]
        assert list(report.precisions) == pytest.approx(case["precisions"]), case["name"]
        assert report.brevity_penalty == pytest.approx(case["brevity_penalty"])
        assert report.hyp_length == case["hyp_length"]
        assert report.ref_length == case["ref_length"]


def test_identity_is_100():
    report = corpus_bleu(["a b c d e"], ["a b c d e"])
    assert report.score == pytest.approx(100.0)
    assert report.brevity_penalty == 1.0
    assert all(p == 1.0 for p in report.precisions)


def test_spec_single_pair_case():
    # hyp "a b c d e" vs ref "a b c d f": p = 4/5, 3/4, 2/3, 1/2; BP 1
    report = corpus_bleu(["a b c d e"], ["a b c d f"], BleuConfig(smoothing="none"))
    assert list(report.precisions) == pytest.approx([4 / 5, 3 / 4, 2 / 3, 1 / 2])
    expected = 100 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    assert report.score == pytest.approx(expected, rel=1e-9)
    assert report.score == pytest.approx(66.87, abs=0.005)


def test_brevity_penalty_short_hypothesis():
    # all n-grams match the reference prefix, hyp 4 tokens vs ref 6
    report = corpus_bleu(["a b c d"], ["a b c d e f"], BleuConfig(smoothing="none"))
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 6 / 4))
    assert report.score == pytest.approx(100 * math.exp(1 - 6 / 4), rel=1e-9)


def test_pinned_reference_scorer_fixture(bleu_fixture):
    pinned = bleu_fixture["pinned_20_pair"]
    report = corpus_bleu(pinned["hypotheses"], pinned["references"])
    assert abs(report.score - pinned["score"]) < 0.01
    assert report.score == pytest.approx(pinned["score"], rel=1e-9)
    assert list(report.precisions) == pytest.approx(pinned["precisions"])
    assert report.brevity_penalty == pytest.approx(pinned["brevity_penalty"])
    assert report.hyp_length == pinned["hyp_length"]
    assert report.ref_length == pinned["ref_length"]


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def test_all_empty_hypotheses_score_zero():
    report = corpus_bleu(["", "  "], ["a b", "c d"])
    assert report.score == 0.0
    assert report.hyp_length == 0
    assert report.brevity_penalty == 0.0
    # empty against empty: no length shortfall, yet nothing to score
    report = corpus_bleu([""], [""])
    assert (report.brevity_penalty, report.score) == (0.0, 0.0)
    assert report.precisions == (0.0,) * 4
    assert (report.hyp_length, report.ref_length) == (0, 0)


def test_smoothing_none_zero_precision_zeroes_score():
    report = corpus_bleu(["a b c d"], ["a x y z"], BleuConfig(smoothing="none"))
    assert report.score == 0.0
    report = corpus_bleu(["a b c d"], ["a x y z"], BleuConfig(smoothing="exp-floor"))
    assert report.score > 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(SENTENCES, SENTENCES), min_size=1, max_size=6))
def test_matches_naive_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    config = BleuConfig()
    report = corpus_bleu(hyps, refs, config)
    score, precisions, bp, hyp_len, ref_len = naive_bleu(
        [tokenize(h, config.tokenization) for h in hyps],
        [tokenize(r, config.tokenization) for r in refs],
    )
    assert report.score == pytest.approx(score, abs=1e-9)
    assert list(report.precisions) == pytest.approx(precisions)
    assert report.brevity_penalty == pytest.approx(bp)
    assert (report.hyp_length, report.ref_length) == (hyp_len, ref_len)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(SENTENCES, SENTENCES), min_size=1, max_size=6))
def test_unigram_bleu_matches_naive_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    config = BleuConfig(max_order=1)
    report = corpus_bleu(hyps, refs, config)
    score, precisions, bp, hyp_len, ref_len = naive_bleu(
        [tokenize(h, config.tokenization) for h in hyps],
        [tokenize(r, config.tokenization) for r in refs],
        max_order=1,
    )
    assert report.score == pytest.approx(score, abs=1e-9)
    assert list(report.precisions) == pytest.approx(precisions)
    assert report.brevity_penalty == pytest.approx(bp)
    assert (report.hyp_length, report.ref_length) == (hyp_len, ref_len)


# segments over three words, so n-grams repeat within and across segments;
# many are empty or shorter than the highest order
ABC_SEGMENTS = st.lists(st.sampled_from("abc"), max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(ABC_SEGMENTS, ABC_SEGMENTS), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=6),
)
@example([([], ["a"]), (["a", "b"], ["b", "a", "b"]), (["c"] * 7, ["c"] * 3)], 6)
@example([(["a"], []), (["b", "b"], ["b"])], 3)
def test_counts_equal_the_naive_oracle_exactly(pairs, max_order):
    report = corpus_bleu(
        [" ".join(h) for h, _ in pairs], [" ".join(r) for _, r in pairs], BleuConfig(max_order=max_order)
    )
    _score, precisions, _bp, hyp_len, ref_len = naive_bleu(
        [h for h, _ in pairs], [r for _, r in pairs], max_order=max_order
    )
    assert list(report.precisions) == precisions
    assert (report.hyp_length, report.ref_length) == (hyp_len, ref_len)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SENTENCES, SENTENCES), min_size=2, max_size=6), st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rng):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    base = corpus_bleu(hyps, refs)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
    assert shuffled.score == pytest.approx(base.score, abs=1e-12)


def test_monotone_brevity_penalty():
    # holding matches fixed, a shorter hypothesis scores strictly lower
    ref = ["a b c d e f g h"]
    longer = corpus_bleu(["a b c d e f"], ref, BleuConfig(smoothing="none"))
    shorter = corpus_bleu(["a b c d e"], ref, BleuConfig(smoothing="none"))
    even_shorter = corpus_bleu(["a b c d"], ref, BleuConfig(smoothing="none"))
    assert longer.score > shorter.score > even_shorter.score


# --- s-BLEU / d-BLEU ---

def aligned(pairs):
    hyp = {}
    ref = {}
    for (doc, seg), (h, r) in pairs.items():
        hyp[(doc, seg)] = h
        ref[(doc, seg)] = r
    return hyp, ref


def test_s_bleu_perfect():
    hyp, ref = aligned({("d", 0): ("a b", "a b"), ("d", 1): ("c d", "c d")})
    report = s_bleu(hyp, ref)
    assert report.score == pytest.approx(100.0)
    assert report.segmentation == "sentence"


def test_s_bleu_equals_corpus_bleu_on_one_document():
    hyp, ref = aligned({("d", 0): ("a b c", "a b d"), ("d", 1): ("e f", "e f")})
    report = s_bleu(hyp, ref)
    direct = corpus_bleu(["a b c", "e f"], ["a b d", "e f"])
    assert report.score == pytest.approx(direct.score)


def test_s_bleu_flattens_multiple_documents():
    # oracle: flatten by hand and call corpus_bleu
    hyp, ref = aligned({
        ("a", 0): ("x y", "x y"),
        ("a", 1): ("z w", "z q"),
        ("b", 0): ("m n o", "m n o"),
    })
    report = s_bleu(hyp, ref)
    direct = corpus_bleu(["x y", "z w", "m n o"], ["x y", "z q", "m n o"])
    assert report.score == pytest.approx(direct.score)


def test_alignment_gap_listed():
    hyp = {("a", 0): "x", ("a", 1): "y"}
    ref = {("a", 0): "x", ("b", 0): "z"}
    with pytest.raises(AlignmentError) as err:
        s_bleu(hyp, ref)
    assert err.value.missing_in_hyp == [("b", 0)]
    assert err.value.missing_in_ref == [("a", 1)]


@pytest.mark.parametrize("scorer", [s_bleu, d_bleu])
@pytest.mark.parametrize("side", ["hypotheses", "references"])
def test_a_gap_on_one_side_is_listed(scorer, side):
    full = {("a", 0): "x", ("a", 1): "y", ("b", 0): "z"}
    short = {k: v for k, v in full.items() if k != ("a", 1)}
    hyp, ref = (short, full) if side == "hypotheses" else (full, short)
    with pytest.raises(AlignmentError) as err:
        scorer(hyp, ref)
    missing = (err.value.missing_in_hyp, err.value.missing_in_ref)
    assert missing == (([("a", 1)], []) if side == "hypotheses" else ([], [("a", 1)]))


def test_d_bleu_perfect():
    hyp, ref = aligned({("d", 0): ("a b", "a b"), ("d", 1): ("c d", "c d")})
    report = d_bleu(hyp, ref)
    assert report.score == pytest.approx(100.0)
    assert report.segmentation == "document"


def test_d_bleu_cross_boundary_bigram(bleu_fixture):
    # oracle: manual join then count (frozen); the bigram "a b" spans the
    # sentence boundary so d-BLEU and s-BLEU differ
    frozen = bleu_fixture["cross_boundary"]
    hyp = {("d", 0): "x a", ("d", 1): "b y"}
    ref = {("d", 0): "q a", ("d", 1): "b r"}
    d_report = d_bleu(hyp, ref)
    s_report = s_bleu(hyp, ref)
    assert d_report.score == pytest.approx(frozen["d_bleu"]["score"], rel=1e-9)
    assert list(d_report.precisions) == pytest.approx(frozen["d_bleu"]["precisions"])
    assert s_report.score == pytest.approx(frozen["s_bleu"]["score"], rel=1e-9)
    assert d_report.score != pytest.approx(s_report.score)


@pytest.mark.parametrize(
    "segments,length",
    [
        # "..1" alone is ". . 1": the first "." pads the second. After "a "
        # the space pads the first, pairs do not overlap, and ".1" stays whole
        (["a", "..1"], 3),
        # "well-\n" alone ends in a stripped line feed and keeps its hyphen;
        # joined, "-\n" is a hyphenated line break and is deleted
        (["well-\n", "x"], 2),
    ],
)
def test_d_bleu_tokenizes_the_joined_document(segments, length):
    # s-BLEU's tokens concatenated would count one more
    table = {("d", i): text for i, text in enumerate(segments)}
    assert s_bleu(table, table).hyp_length == length + 1
    report = d_bleu(table, table)
    assert (report.hyp_length, report.ref_length) == (length, length)


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.text(string.ascii_lowercase, min_size=1, max_size=3), st.just(0)),
        st.tuples(SENTENCES, SENTENCES),
        min_size=1,
        max_size=6,
    )
)
def test_single_sentence_documents_make_d_equal_s(table):
    hyp, ref = aligned(table)
    assert d_bleu(hyp, ref).score == s_bleu(hyp, ref).score


def test_config_validation():
    with pytest.raises(ValueError):
        BleuConfig(max_order=0)
    with pytest.raises(ValueError):
        BleuConfig(smoothing="add-k")
    with pytest.raises(ValueError):
        BleuConfig(tokenization="words")


def test_character_mode_scores_cjk():
    config = BleuConfig(tokenization="character")
    report = corpus_bleu(["山风吹过高原"], ["山风吹过高原"], config)
    assert report.score == pytest.approx(100.0)
    partial = corpus_bleu(["山风吹过平原"], ["山风吹过高原"], config)
    assert 0 < partial.score < 100

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from littrans.tokenization import (
    _CJK_RANGES,
    _TOKEN,
    cjk_ratio,
    count_tokens,
    terms,
)
from util import naive_cjk_ratio, naive_segment_text

SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


def test_whitespace_words():
    assert terms("The road ahead") == ["the", "road", "ahead"]
    assert count_tokens("The road ahead") == 3


def test_cjk_chars_are_single_tokens():
    assert terms("山风吹过") == ["山", "风", "吹", "过"]
    assert count_tokens("山风吹过") == 4


def test_cjk_punctuation_becomes_own_token():
    # only between CJK characters, whitespace and the ends of the text
    assert terms("山风吹过高原。") == ["山", "风", "吹", "过", "高", "原", "。"]
    assert count_tokens("山风吹过高原。") == 7


def test_cjk_punctuation_joins_an_adjacent_non_cjk_run():
    assert terms("他说。hello") == ["他", "说", "。hello"]
    assert terms("“你好”，他说") == ["“", "你", "好", "”，", "他", "说"]
    assert count_tokens("他说。hello") == 3


def test_mixed_script():
    assert terms("他说 hello 世界") == ["他", "说", "hello", "世", "界"]
    assert count_tokens("他说 hello 世界") == 5


def test_empty_and_whitespace():
    for text in ("", "   \t\n"):
        assert terms(text) == []
        assert count_tokens(text) == 0


def test_count_tokens_matches_segments():
    assert count_tokens("少年握紧了手中的剑。") == 10
    assert count_tokens("The boy tightened his grip on the sword.") == 8


def test_terms_lowercase():
    assert terms("The Road THE road") == ["the", "road", "the", "road"]


def test_terms_lowercase_each_token_on_its_own():
    # U+30FC is case-ignorable: "ΑΣーΑ".lower() keeps a medial sigma
    assert terms("ΑΣーΑ") == ["ας", "ー", "α"]


def test_is_cjk_char():
    assert cjk_ratio("山") == 1.0
    assert cjk_ratio("の") == 1.0
    assert cjk_ratio("a") == 0.0
    assert cjk_ratio("。") == 0.0  # CJK punctuation is outside the ranges


def test_cjk_ratio():
    assert cjk_ratio("山风") == 1.0
    assert cjk_ratio("abcd") == 0.0
    assert cjk_ratio("") == 0.0
    assert 0.5 < cjk_ratio("山风吹过高原。") < 1.0


def test_classes_match_isspace_and_the_ranges_at_every_code_point():
    cjk = {chr(cp) for lo, hi in _CJK_RANGES for cp in range(lo, hi + 1)}
    for plane in range(17):  # one plane at a time keeps memory small
        chars = [chr(cp) for cp in range(plane << 16, (plane + 1) << 16)]
        spaces = set(filter(str.isspace, chars))
        plane_cjk = cjk.intersection(chars)
        # each character between two letters: a CJK character stands alone,
        # whitespace splits, and any other character joins the letters' run
        # the raw split: terms would lowercase, and "İ" lowers to two characters
        tokens = _TOKEN.findall("a" + "a".join(chars) + "a")
        assert set(chars).difference("".join(tokens)) == spaces
        assert {t for t in tokens if len(t) == 1} - {"a"} == plane_cjk
        assert cjk_ratio("".join(chars)) == len(plane_cjk) / (len(chars) - len(spaces))


_edges = [chr(cp) for lo, hi in _CJK_RANGES for cp in (lo - 1, lo, hi, hi + 1)]
_samples = list(
    "あカー・한국ㄱᄀ。，、“”「」！・　"  # kana, Hangul, CJK punctuation, ideographic space
    "aZΣΑİß9 "  # cased letters (final sigma, İ lowers to two characters), digits
    "\U00010000\U0001F600\U0010FFFF\ud800"  # astral code points and a lone surrogate
)
mixed_text = st.text(
    st.one_of(
        st.sampled_from(_edges + _samples + SPACES),
        st.integers(0, sys.maxunicode).map(chr),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(mixed_text)
@example("他说。hello")
@example("ΑΣーΑ")
def test_tokenization_equals_the_per_character_loop(text):
    expected = naive_segment_text(text)
    assert _TOKEN.findall(text) == expected
    assert terms(text) == [t.lower() for t in expected]
    assert count_tokens(text) == len(expected)
    assert cjk_ratio(text) == naive_cjk_ratio(text)

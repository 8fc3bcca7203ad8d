"""Script-aware text segmentation shared by data staging and retrieval.

Unsegmented CJK text carries no word boundaries, so a token is either one
CJK character or a maximal run of characters that are neither CJK nor
whitespace (``str.isspace()``). This keeps token budgets and retrieval
terms meaningful for Chinese, English, and mixed text without an external
segmenter.

Not the BLEU tokenizer — scorer-compatible tokenization lives in
``littrans.metrics``.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right

# Han ideographs plus kana. Hangul is excluded (it is space-delimited), and
# so is most CJK punctuation: punctuation outside these ranges joins an
# adjacent non-CJK run ("他说。hello" is 他 / 说 / 。hello) and is a token of
# its own only between CJK characters, whitespace and the ends of the text.
_CJK_RANGES = (
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3400, 0x4DBF),    # CJK ext A
    (0x4E00, 0x9FFF),    # CJK unified
    (0xF900, 0xFAFF),    # CJK compatibility
    (0x20000, 0x2A6DF),  # CJK ext B
    (0x2F800, 0x2FA1F),  # CJK compatibility supplement
)

# The only compile of the CJK class: each one costs milliseconds at import.
# On str patterns, re's \s is exactly str.isspace().
_CJK = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
_TOKEN = re.compile(f"[{_CJK}]|[^{_CJK}\\s]+")


def count_tokens(text: str) -> int:
    """Default token counter for packing budgets (injectable elsewhere)."""
    return len(_TOKEN.findall(text))


def terms(text: str) -> list[str]:
    """Lowercased tokens for retrieval term statistics.

    Each token is lowercased on its own: lowercasing the whole text could
    pick a different final sigma next to a case-ignorable CJK character
    such as U+30FC."""
    return list(map(str.lower, _TOKEN.findall(text)))


def cjk_ratio(text: str) -> float:
    """Fraction of non-space characters that are CJK; 0.0 for empty text."""
    chars = sorted("".join(text.split()))
    if not chars:
        return 0.0
    # sorted by code point, each range's characters lie between two bisections
    cjk = sum(bisect_right(chars, chr(hi)) - bisect_left(chars, chr(lo)) for lo, hi in _CJK_RANGES)
    return cjk / len(chars)

"""s-BLEU and d-BLEU scoring.

The scorer follows the standard corpus-BLEU recipe: clipped n-gram counts
accumulated over all segments, per-order precisions, exponential-floor
smoothing for zero-match orders, brevity penalty, geometric mean. Each
segment side's n-grams of every order are counted in one table, and the
hypothesis table is clipped against the reference table in one pass.

The default tokenizer, intl-13a, is mteval-v14's international
tokenization as sacrebleu's TokenizerV14International ports it. After
trailing whitespace is stripped it

1. joins end-of-line hyphenation: a hyphen followed by a line feed is
   deleted;
2. maps every control character (category Cc) to a space;
3. pads punctuation not adjacent to a number: with P any punctuation
   (P*) and N any number (N*: Nd, Nl, No), each leftmost non-overlapping
   pair (non-N)(P) becomes "a p ", then each pair (P)(non-N) " p a";
4. pads every symbol (S*) as " s ";
5. splits on whitespace.

The categories come from the running Python's unicodedata: Unicode 13.0
on Python 3.10, 14.0 on 3.11, 15.0 on 3.12 and 15.1 on 3.13, so a
character assigned in a later version can tokenize differently across
Pythons. "character" mode scores unsegmented text one character at a
time.

s-BLEU treats every sentence as a segment, d-BLEU joins each document's
sentences with single spaces into one segment. Single reference per
segment.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, pairwise, repeat
from operator import add, itemgetter
from typing import Mapping, Sequence

SMOOTHING_MODES = ("none", "exp-floor")
TOKENIZATION_MODES = ("intl-13a", "character")

SegmentKey = tuple[str, int]  # (doc_id, seg_index)
SHOWN_KEYS = 10  # missing keys an AlignmentError message names per side


def _key_list(keys: list[SegmentKey]) -> str:
    if len(keys) <= SHOWN_KEYS:
        return str(keys)
    return f"{keys[:SHOWN_KEYS]} ... ({len(keys)} keys)"


class AlignmentError(Exception):
    """Hypotheses and references name different segments. The message
    names at most SHOWN_KEYS keys per side, then that side's count; the
    attributes hold every missing key."""

    def __init__(self, missing_in_hyp: list[SegmentKey], missing_in_ref: list[SegmentKey]):
        parts = []
        if missing_in_hyp:
            parts.append(f"missing in hypotheses: {_key_list(missing_in_hyp)}")
        if missing_in_ref:
            parts.append(f"missing in references: {_key_list(missing_in_ref)}")
        super().__init__("; ".join(parts))
        self.missing_in_hyp = missing_in_hyp
        self.missing_in_ref = missing_in_ref


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    smoothing: str = "exp-floor"
    tokenization: str = "intl-13a"
    lowercase: bool = False

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("metrics.max_order must be >= 1")
        if self.smoothing not in SMOOTHING_MODES:
            raise ValueError(f"metrics.smoothing must be one of {SMOOTHING_MODES}")
        if self.tokenization not in TOKENIZATION_MODES:
            raise ValueError(f"metrics.tokenization must be one of {TOKENIZATION_MODES}")


@dataclass(frozen=True)
class BleuReport:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    segmentation: str


# the 65 code points of category Cc: U+0000-U+001F and U+007F-U+009F
_CONTROLS = dict.fromkeys([*range(0x20), *range(0x7F, 0xA0)], " ")


class _CharClasses(dict):
    """str.translate table from a code point to its class letter: "d" for a
    number (N*), "p" for punctuation (P*), "s" for a symbol (S*), "o" for
    anything else. Each code point is classified at its first lookup."""

    def __missing__(self, code: int) -> str:
        letter = {"N": "d", "P": "p", "S": "s"}.get(unicodedata.category(chr(code))[0], "o")
        self[code] = letter
        return letter


_CLASSES = _CharClasses()
_PUNCT_AFTER = re.compile("([^d])p")
_PUNCT_BEFORE = re.compile("p([^d])")


def _pad_punctuation(classes: str) -> str:
    """The two punctuation rules on a class string: (non-number)(punct) ->
    "a p ", then (punct)(non-number) -> " p a", at leftmost non-overlapping
    pairs. Each rule splits on a one-group pattern and joins every captured
    letter back with " p ": the same matches as re.sub with a group
    template, which Python 3.10 and 3.11 expand in Python at every match."""
    parts = _PUNCT_AFTER.split(classes)
    parts[1::2] = map(add, parts[1::2], repeat(" p "))
    parts = _PUNCT_BEFORE.split("".join(parts))
    parts[1::2] = map(add, repeat(" p "), parts[1::2])
    return "".join(parts)


def tokenize(text: str, mode: str = "intl-13a", lowercase: bool = False) -> list[str]:
    """Tokenize one segment for scoring.

    intl-13a: the rules in the module docstring. The control pass runs
    only on non-printable text: every Cc character is non-printable, so on
    printable text it would change nothing. The padding rules run on a
    string of class letters of the same length as the text, which is then
    cut wherever the class string gained a space. character: one token per
    non-space character.
    """
    if mode not in TOKENIZATION_MODES:
        raise ValueError(f"tokenization must be one of {TOKENIZATION_MODES}")
    if lowercase:
        text = text.lower()
    text = text.rstrip()
    if mode == "character":
        return [c for c in text if not c.isspace()]
    text = text.replace("-\n", "")
    if not text.isprintable():
        text = text.translate(_CONTROLS)
    classes = _pad_punctuation(text.translate(_CLASSES)).replace("s", " s ")
    cuts = pairwise(accumulate(map(len, classes.split(" ")), initial=0))
    return " ".join(text[a:b] for a, b in cuts).split()


def _ngrams(tokens: Sequence[str], max_order: int) -> Counter:
    """Every n-gram of orders 1 to max_order counted in one table, keyed by
    its token tuple, so len(gram) is its order. The orders share max_order
    slices of the tokens."""
    tails = [tokens[i:] for i in range(max_order)]
    return Counter(chain.from_iterable(zip(*tails[:order]) for order in range(1, max_order + 1)))


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    config: BleuConfig = BleuConfig(),
    segmentation: str = "sentence",
) -> BleuReport:
    """Corpus-level BLEU over aligned (hypothesis, reference) segments."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"segment count mismatch: {len(hypotheses)} hypotheses vs "
            f"{len(references)} references"
        )
    if not hypotheses:
        raise ValueError("at least one segment is required")

    correct = [0] * config.max_order
    total = [0] * config.max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = tokenize(hyp, config.tokenization, config.lowercase)
        ref_tokens = tokenize(ref, config.tokenization, config.lowercase)
        n = len(hyp_tokens)
        hyp_len += n
        ref_len += len(ref_tokens)
        # a hypothesis of n tokens has no gram longer than n to match
        orders = min(n, config.max_order)
        for order in range(orders):
            total[order] += n - order
        ref_counts = _ngrams(ref_tokens, orders)
        # clipped matches: min(hypothesis count, reference count) per n-gram
        for gram, count in _ngrams(hyp_tokens, orders).items():
            ref_count = ref_counts.get(gram, 0)
            correct[len(gram) - 1] += count if count < ref_count else ref_count

    precisions = [0.0] * config.max_order
    floor_scale = 1.0
    for n in range(config.max_order):
        if total[n] == 0:
            continue
        if correct[n] == 0 and config.smoothing == "exp-floor":
            floor_scale *= 2.0
            precisions[n] = 1.0 / (floor_scale * total[n])
        else:
            precisions[n] = correct[n] / total[n]

    if hyp_len == 0:  # no n-gram counted: every precision and the score are 0.0 too
        brevity_penalty = 0.0
    elif hyp_len >= ref_len:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)

    # orders the hypothesis corpus is too short to produce are excluded
    # from the geometric mean instead of zeroing the whole score
    effective = [precisions[n] for n in range(config.max_order) if total[n] > 0]
    if not effective or any(p == 0.0 for p in effective):
        score = 0.0
    else:
        score = brevity_penalty * math.exp(
            sum(math.log(p) for p in effective) / len(effective)
        ) * 100.0

    return BleuReport(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_length=hyp_len,
        ref_length=ref_len,
        segmentation=segmentation,
    )


def _check_alignment(
    hypotheses: Mapping[SegmentKey, str], references: Mapping[SegmentKey, str]
) -> list[SegmentKey]:
    missing_in_hyp = sorted(set(references) - set(hypotheses))
    missing_in_ref = sorted(set(hypotheses) - set(references))
    if missing_in_hyp or missing_in_ref:
        raise AlignmentError(missing_in_hyp, missing_in_ref)
    return sorted(hypotheses)


def s_bleu(
    hypotheses: Mapping[SegmentKey, str],
    references: Mapping[SegmentKey, str],
    config: BleuConfig = BleuConfig(),
) -> BleuReport:
    """Sentence-segmented BLEU: every (doc_id, seg_index) is one segment."""
    keys = _check_alignment(hypotheses, references)
    return corpus_bleu(
        [hypotheses[k] for k in keys],
        [references[k] for k in keys],
        config,
        segmentation="sentence",
    )


def d_bleu(
    hypotheses: Mapping[SegmentKey, str],
    references: Mapping[SegmentKey, str],
    config: BleuConfig = BleuConfig(),
) -> BleuReport:
    """Document-segmented BLEU: each document's sentences joined with
    single spaces form one segment.

    Each joined document is tokenized as one text. intl-13a's rules are not
    local to a sentence: "..1" alone is [".", ".", "1"] but "a ..1" is
    ["a", ".", ".1"], and "well-\\n" alone is ["well", "-"] but
    "well-\\n x" is ["well", "x"]. So a document's tokens are not its
    sentences' s-BLEU tokens concatenated, and cannot be reused from them.
    """
    keys = _check_alignment(hypotheses, references)
    hyp_docs = []
    ref_docs = []
    # sorted keys hold each document's segments as one run, in order
    for _doc_id, group in groupby(keys, key=itemgetter(0)):
        segs = list(group)
        hyp_docs.append(" ".join(hypotheses[k] for k in segs))
        ref_docs.append(" ".join(references[k] for k in segs))
    return corpus_bleu(hyp_docs, ref_docs, config, segmentation="document")

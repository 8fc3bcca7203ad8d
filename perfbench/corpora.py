"""Seeded synthetic zh->en corpora for the benchmark workloads.

Nothing here imports littrans: the generator knows by construction what
the program should produce (token counts, BLEU token lists, unique
sources), so the checks never compare the program against itself.

Source sentences are runs of CJK "words" (1-3 ideographs) drawn from a
Zipf-skewed vocabulary, with recurring character names, "，" between
clauses and one of "。！？" at the end; every sentence starts with an
ideograph. Targets are built from chunks, each a short run of tokens that
is written without inner spaces ("home," "Lin's" "$12" "well-known"),
and chunks are joined by single spaces. The chunk rules keep the
intl-13a tokenization of a target equal to the concatenation of its
chunks' tokens, so BLEU inputs have known token lists.

The shape of every corpus (document, chapter and sentence counts) is the
same for every seed; the seed picks the vocabulary and the text.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CJK_FIRST, CJK_LAST = 0x4E00, 0x9FA5
VOCAB_SIZE = 3000
ZIPF_S = 1.1
NAME_COUNT = 12
NAME_SHARE = 0.35
CLAUSE_SHARE = 0.15
SYLLABLES = (
    "ba be bi bo da de di do fa fe fi fo ga ge gi go ka ke ki ko la le li lo "
    "ma me mi mo na ne ni no pa pe pi po ra re ri ro sa se si so ta te ti to "
    "va ve vi vo za ze zi zo"
).split()
END_PUNCT = (("。", "."), ("！", "!"), ("？", "?"))
CLAUSE_PUNCT = ("，", ",")


@dataclass(frozen=True)
class Pair:
    doc_id: str
    chapter_id: str
    seg_index: int
    source: str
    target: str
    source_tokens: int  # tokens under the CJK-aware segmentation
    target_tokens: tuple[str, ...]  # intl-13a tokens of target


@dataclass
class Corpus:
    documents: list[list[Pair]] = field(default_factory=list)

    @property
    def pairs(self) -> list[Pair]:
        return [p for doc in self.documents for p in doc]

    def write_records(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for p in self.pairs:
                rec = {
                    "doc_id": p.doc_id,
                    "chapter_id": p.chapter_id,
                    "seg_index": p.seg_index,
                    "source": p.source,
                    "target": p.target,
                }
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


class Lexicon:
    """Seeded vocabulary: CJK words with Latin glosses, Zipf weights, names.

    Word and gloss lengths by frequency rank are the same for every seed,
    so the seed changes the text but not its length profile: under a Zipf
    skew the few top-ranked words set the mean sentence length, and with
    it the cost of every layer."""

    def __init__(self, rng: random.Random):
        shape = random.Random("lexicon-shape")
        count = VOCAB_SIZE + NAME_COUNT
        word_lengths = [shape.choices((1, 2, 3), weights=(0.3, 0.55, 0.15))[0] for _ in range(count)]
        word_lengths[VOCAB_SIZE:] = [max(2, n) for n in word_lengths[VOCAB_SIZE:]]
        gloss_lengths = [shape.randint(2, 4) for _ in range(count)]
        chars = [chr(c) for c in rng.sample(range(CJK_FIRST, CJK_LAST + 1), 2500)]
        self.words = self._unique(rng, word_lengths, lambda: rng.choice(chars))
        self.glosses = self._unique(rng, gloss_lengths, lambda: rng.choice(SYLLABLES))
        self.names = self.words[VOCAB_SIZE:]
        self.name_glosses = [g.capitalize() for g in self.glosses[VOCAB_SIZE:]]
        self.cumulative = []
        total = 0.0
        for rank in range(VOCAB_SIZE):
            total += 1.0 / (rank + 1) ** ZIPF_S
            self.cumulative.append(total)

    @staticmethod
    def _unique(rng: random.Random, lengths: list[int], piece) -> list[str]:
        out: list[str] = []
        seen: set[str] = set()
        for n in lengths:
            while True:
                word = "".join(piece() for _ in range(n))
                if word not in seen:
                    break
            seen.add(word)
            out.append(word)
        return out

    def word(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])


def target_text(chunks: list[tuple[str, ...]]) -> str:
    return " ".join("".join(c) for c in chunks)


def chunk_tokens(chunks: list[tuple[str, ...]]) -> tuple[str, ...]:
    return tuple(t for c in chunks for t in c)


def _target_chunk(rng: random.Random, shape: random.Random, gloss: str) -> tuple[str, ...]:
    """One word's chunk, occasionally decorated in an intl-13a-relevant way."""
    roll = shape.random()
    if roll < 0.04:
        return (gloss, "'", "s")
    if roll < 0.07:
        return ('"', gloss)
    if roll < 0.09:
        return (gloss, "-", rng.choice(SYLLABLES) + rng.choice(SYLLABLES))
    return (gloss,)


def _number_chunk(rng: random.Random, shape: random.Random) -> tuple[str, ...]:
    number = str(rng.randint(100, 999))
    if shape.random() < 0.3:
        number += "." + str(rng.randint(1, 9))
    return ("$", number) if shape.random() < 0.4 else (number,)


def make_sentence(rng: random.Random, shape: random.Random, lex: Lexicon):
    """(source, source token count, target chunks) for one sentence.

    `shape` decides the structure (word count, name slot, decorations,
    punctuation) and `rng` the words, so a corpus position has the same
    structure under every seed."""
    items: list[tuple[str, str]] = []
    for _ in range(shape.randint(4, 14)):
        i = lex.word(rng)
        items.append((lex.words[i], lex.glosses[i]))
    if shape.random() < NAME_SHARE:
        n = rng.randrange(NAME_COUNT)
        items.insert(shape.randint(0, len(items) - 1), (lex.names[n], lex.name_glosses[n]))
    source_parts: list[str] = []
    chunks: list[tuple[str, ...]] = []
    tokens = 0
    for pos, (word, gloss) in enumerate(items):
        source_parts.append(word)
        tokens += len(word)
        chunk = _target_chunk(rng, shape, gloss)
        inner = 0 < pos < len(items) - 1
        if inner and shape.random() < 0.05:
            chunks.append(_number_chunk(rng, shape))
        if inner and shape.random() < CLAUSE_SHARE:
            source_parts.append(CLAUSE_PUNCT[0])
            tokens += 1
            chunk = chunk + (CLAUSE_PUNCT[1],)
        chunks.append(chunk)
    end_src, end_tgt = shape.choice(END_PUNCT)
    source_parts.append(end_src)
    tokens += 1
    # punctuation is only ever attached to a word chunk, never to a number
    chunks[-1] = chunks[-1] + (end_tgt,)
    return "".join(source_parts), tokens, chunks


def _unique_sentence(rng: random.Random, lex: Lexicon, seen: set[str], position: str):
    while True:
        source, n_tokens, chunks = make_sentence(rng, random.Random(position), lex)
        if source not in seen:
            seen.add(source)
            return source, n_tokens, chunks


def _build(rng: random.Random, lex: Lexicon, label: str, doc_lengths: list[int], chapter_length: int):
    corpus = Corpus()
    chunk_lists: list[list[tuple[str, ...]]] = []
    seen: set[str] = set()
    for d, length in enumerate(doc_lengths):
        doc_id = f"{label}{d:03d}"
        doc: list[Pair] = []
        for seg in range(length):
            source, n_tokens, chunks = _unique_sentence(rng, lex, seen, f"{doc_id}:{seg}")
            chunk_lists.append(chunks)
            doc.append(
                Pair(
                    doc_id=doc_id,
                    chapter_id=f"ch{seg // chapter_length:02d}",
                    seg_index=seg,
                    source=source,
                    target=target_text(chunks),
                    source_tokens=n_tokens,
                    target_tokens=chunk_tokens(chunks),
                )
            )
        corpus.documents.append(doc)
    return corpus, chunk_lists


def make_corpus(seed: int, label: str, doc_lengths: list[int], chapter_length: int) -> Corpus:
    """Parallel corpus with fixed document lengths; chapters hold
    chapter_length sentences (the last one of a document may be shorter).
    Every source sentence is unique in the corpus."""
    rng = random.Random(f"{label}:{seed}")
    return _build(rng, Lexicon(rng), label, doc_lengths, chapter_length)[0]


@dataclass(frozen=True)
class EvalSegment:
    doc_id: str
    seg_index: int
    hypothesis: str
    hyp_tokens: tuple[str, ...]
    reference: str
    ref_tokens: tuple[str, ...]


def perturb(rng: random.Random, lex: Lexicon, chunks: list[tuple[str, ...]]):
    """A system-like hypothesis: chunk-level substitutions, drops and
    swaps, so n-gram matches are partial and lengths differ."""
    out = list(chunks)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        i = rng.randrange(len(out))
        if roll < 0.5:
            tail = out[i][-1:] if out[i][-1] in ",.!?" else ()
            out[i] = (lex.glosses[lex.word(rng)],) + tail
        elif roll < 0.75 and len(out) > 2:
            del out[i]
        elif len(out) > 1:
            j = min(i + 1, len(out) - 1)
            i = j - 1
            out[i], out[j] = out[j], out[i]
    return out


def make_eval_set(seed: int, doc_lengths: list[int]) -> tuple[Corpus, list[EvalSegment]]:
    """Reference corpus plus one perturbed hypothesis per segment; every
    hypothesis text is unique and differs from every reference text."""
    rng = random.Random(f"evaluate:{seed}")
    lex = Lexicon(rng)
    corpus, chunk_lists = _build(rng, lex, "ev", doc_lengths, max(doc_lengths))
    ref_texts = {p.target for p in corpus.pairs}
    segments: list[EvalSegment] = []
    for p, chunks in zip(corpus.pairs, chunk_lists):
        while True:
            hyp_chunks = perturb(rng, lex, chunks)
            hyp = target_text(hyp_chunks)
            if hyp not in ref_texts:
                ref_texts.add(hyp)
                break
        segments.append(
            EvalSegment(p.doc_id, p.seg_index, hyp, chunk_tokens(hyp_chunks), p.target, p.target_tokens)
        )
    return corpus, segments


def write_hypotheses(segments: list[EvalSegment], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for s in segments:
            rec = {"doc_id": s.doc_id, "seg_index": s.seg_index, "hypothesis": s.hypothesis}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

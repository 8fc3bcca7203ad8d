"""Correctness checks and the oracles they use.

Every oracle here is written from the definition (the CJK-aware term
split, tf-idf with idf = ln((1 + N) / (1 + df)) + 1, cosine, top-m
keywords with Jaccard overlap, BLEU with clipped counts, exponential
floor and brevity penalty) and imports nothing from littrans. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from corpora import Corpus, EvalSegment

TOLERANCE = 1e-9
MAX_REPORTED = 5

# Han ideographs and kana count one term per character.
_CJK = ((0x3040, 0x30FF), (0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF),
        (0x20000, 0x2A6DF), (0x2F800, 0x2FA1F))


def oracle_terms(text: str) -> list[str]:
    out: list[str] = []
    word = ""
    for ch in text:
        if any(lo <= ord(ch) <= hi for lo, hi in _CJK):
            if word:
                out.append(word)
                word = ""
            out.append(ch)
        elif ch.isspace():
            if word:
                out.append(word)
                word = ""
        else:
            word += ch
    if word:
        out.append(word)
    return [t.lower() for t in out]


class TfIdfOracle:
    """Scores a query against a pool from raw document frequencies."""

    def __init__(self, pool_sources: list[str], keyword_count: int, alpha: float):
        self.n = len(pool_sources)
        self.df: Counter[str] = Counter()
        for s in pool_sources:
            self.df.update(set(oracle_terms(s)))
        self.m = keyword_count
        self.alpha = alpha

    def idf(self, term: str) -> float:
        return math.log((1 + self.n) / (1 + self.df[term])) + 1.0

    def vector(self, text: str) -> dict[str, float]:
        v: dict[str, float] = {}
        for t in oracle_terms(text):
            v[t] = v.get(t, 0.0) + self.idf(t)
        return v

    def keywords(self, text: str) -> set[str]:
        v = self.vector(text)
        first = {t: i for i, t in reversed(list(enumerate(oracle_terms(text))))}
        return set(sorted(v, key=lambda t: (-v[t], first[t]))[: self.m])

    def score(self, query: str, candidate: str) -> float:
        qv, cv = self.vector(query), self.vector(candidate)
        nq = math.sqrt(sum(w * w for w in qv.values()))
        nc = math.sqrt(sum(w * w for w in cv.values()))
        dot = sum(w * cv.get(t, 0.0) for t, w in qv.items())
        cosine = dot / (nq * nc) if nq > 0 and nc > 0 else 0.0
        qk, ck = self.keywords(query), self.keywords(candidate)
        union = qk | ck
        jaccard = len(qk & ck) / len(union) if union else 0.0
        return self.alpha * cosine + (1 - self.alpha) * jaccard


@dataclass(frozen=True)
class PromptRecord:
    """One rendered or captured prompt, reduced to what the checks need."""

    source: str
    context: tuple[tuple[str, str], ...]
    exemplars: tuple[tuple[str, str], ...]


def record_from_dict(d: dict) -> PromptRecord:
    return PromptRecord(
        d["source"],
        tuple(tuple(x) for x in d["context"]),
        tuple(tuple(x) for x in d["exemplars"]),
    )


def parse_prompt(text: str) -> PromptRecord:
    """Inverse of the benchmark's marker templates."""
    context, exemplars, source = [], [], None
    for line in text.split("\n"):
        if line.startswith("<c>"):
            context.append(tuple(line[3:].split("\t")))
        elif line.startswith("<e>"):
            exemplars.append(tuple(line[3:].split("\t")))
        elif line.startswith("<q>"):
            source = line[3:]
    if source is None:
        raise ValueError(f"no <q> line in prompt {text[:80]!r}")
    return PromptRecord(source, tuple(context), tuple(exemplars))


def prompts(
    records: list[PromptRecord],
    corpus: Corpus,
    history: int,
    k: int,
    alpha: float,
    keyword_count: int,
    pool: str,
    rng: random.Random,
    sample: int,
) -> list[str]:
    """Context window, no-future rule and (on a seeded sample) exemplar
    scores against the tf-idf oracle. pool is "prefix" when exemplars come
    from the document's own translated prefix, "corpus" for a static index
    over every pair of the corpus."""
    problems: list[str] = []
    where = {p.source: (d, p.seg_index) for d, doc in enumerate(corpus.documents) for p in doc}
    if sorted(where[r.source] for r in records if r.source in where) != sorted(where.values()):
        problems.append(f"{len(records)} prompts do not cover the {len(where)} sentences once each")
    corpus_oracle = None
    if pool == "corpus" and sample:
        corpus_oracle = TfIdfOracle([p.source for p in corpus.pairs], keyword_count, alpha)
    sampled = set(rng.sample(range(len(records)), min(sample, len(records))))
    for n, rec in enumerate(records):
        if rec.source not in where:
            problems.append(f"prompt for an unknown source {rec.source[:20]!r}")
            continue
        d, i = where[rec.source]
        doc = corpus.documents[d]
        want = tuple((p.source, p.target) for p in doc[max(0, i - history):i])
        if rec.context != want:
            problems.append(f"{doc[i].doc_id}#{i}: context is not the previous {len(want)} pairs")
        if len(rec.exemplars) > k or len(set(rec.exemplars)) != len(rec.exemplars):
            problems.append(f"{doc[i].doc_id}#{i}: {len(rec.exemplars)} exemplars, k={k}")
        chosen = []
        for src, tgt in rec.exemplars:
            if src not in where:
                problems.append(f"{doc[i].doc_id}#{i}: exemplar from outside the pool")
                continue
            ed, ei = where[src]
            if ed == d and ei >= i:
                problems.append(f"{doc[i].doc_id}#{i}: exemplar {ei} is not before the sentence")
            if pool == "prefix" and ed != d:
                problems.append(f"{doc[i].doc_id}#{i}: exemplar from another document")
            if corpus.documents[ed][ei].target != tgt:
                problems.append(f"{doc[i].doc_id}#{i}: exemplar translation differs")
            chosen.append(src)
        if n not in sampled:
            continue
        if pool == "prefix":
            oracle = TfIdfOracle([p.source for p in doc[:i]], keyword_count, alpha)
            candidates = [p.source for p in doc[:i]]
        else:
            oracle = corpus_oracle
            candidates = [p.source for dd, dc in enumerate(corpus.documents)
                          for p in dc if not (dd == d and p.seg_index >= i)]
        scores = sorted((oracle.score(rec.source, c) for c in candidates), reverse=True)
        best = [s for s in scores if s > 0.0][:k]
        got = [oracle.score(rec.source, c) for c in chosen]
        if len(got) != len(best) or any(abs(a - b) > TOLERANCE for a, b in zip(got, best)):
            problems.append(f"{doc[i].doc_id}#{i}: exemplar scores {got} != oracle top-{k} {best}")
    return problems[:MAX_REPORTED]


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def hypotheses_file(path: Path, corpus: Corpus) -> list[str]:
    """Every hypothesis equals its reference and none fell back."""
    rows = _read_jsonl(path)
    want = [(p.doc_id, p.seg_index, p.source, p.target) for p in corpus.pairs]
    got = [(r["doc_id"], r["seg_index"], r["source"], r["hypothesis"]) for r in rows]
    problems = []
    if got != want:
        bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        problems.append(f"{bad} of {len(want)} hypotheses differ from the expected translation")
    if any(r["failed"] for r in rows):
        problems.append("hypotheses marked failed")
    return problems


def stub_log(path: Path) -> tuple[list[dict], list[str]]:
    """Requests the stub saw, in arrival order; every body must hold
    exactly model, messages, temperature and max_tokens."""
    entries = _read_jsonl(path)
    problems = []
    for e in entries:
        keys = sorted(json.loads(e["body"]))
        if keys != ["max_tokens", "messages", "model", "temperature"]:
            problems.append(f"request body has keys {keys}")
            break
    return entries, problems


def record_from_body(body: str) -> PromptRecord:
    messages = json.loads(body)["messages"]
    return parse_prompt(messages[-1]["content"])


def stage1(path: Path, corpus: Corpus, budget: int) -> list[str]:
    """Units partition each chapter in order and carry the generator's
    token counts."""
    units = _read_jsonl(path)
    chapters: list[list] = []
    for doc in corpus.documents:
        for p in doc:
            if not chapters or chapters[-1][0].chapter_id != p.chapter_id or chapters[-1][0].doc_id != p.doc_id:
                chapters.append([])
            chapters[-1].append(p)
    pos = 0
    for chapter in chapters:
        cursor = 0
        while cursor < len(chapter):
            if pos >= len(units):
                return [f"stage 1 ends before {chapter[0].doc_id}/{chapter[0].chapter_id}"]
            unit = units[pos]
            text, tokens, end = "", 0, cursor
            while end < len(chapter) and len(text) < len(unit["text"]):
                text += chapter[end].source
                tokens += chapter[end].source_tokens
                end += 1
            if (unit["doc_id"], unit["chapter_id"]) != (chapter[0].doc_id, chapter[0].chapter_id):
                return [f"stage 1 unit {pos} is in the wrong chapter"]
            if text != unit["text"]:
                return [f"stage 1 unit {pos} is not the next run of chapter sentences"]
            if unit["token_count"] != tokens or unit["over_budget"] != (tokens > budget):
                return [f"stage 1 unit {pos}: {unit['token_count']} tokens, generator counts {tokens}"]
            pos, cursor = pos + 1, end
    if pos != len(units):
        return [f"stage 1 has {len(units) - pos} units beyond the last chapter"]
    return []


def stage2(path: Path, corpus: Corpus) -> list[str]:
    """The interlinear file parses back to every pair, in order."""
    pairs = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        lines = block.split("\n")
        lines = lines[:-1] if lines and lines[-1] == "" else lines
        for src, tgt in zip(lines[0::2], lines[1::2]):
            if not (src.startswith("<src> ") and tgt.startswith("<tgt> ")):
                return ["stage 2 lines are not <src>/<tgt> pairs"]
            pairs.append((src[6:], tgt[6:]))
    if pairs != [(p.source, p.target) for p in corpus.pairs]:
        return [f"stage 2 parses back to {len(pairs)} pairs that differ from the corpus"]
    return []


def baseline(path: Path, corpus: Corpus) -> list[str]:
    rows = _read_jsonl(path)
    got = [(r["input"], r["output"]) for r in rows]
    if got != [(p.source, p.target) for p in corpus.pairs]:
        return ["baseline records are not one per pair in order"]
    if not all(r["input"] in r["instruction"] for r in rows):
        return ["baseline instruction does not hold its source"]
    return []


def stage3_records(path: Path, corpus: Corpus) -> tuple[list[PromptRecord], list[str]]:
    rows = _read_jsonl(path)
    problems = []
    if [r["output"] for r in rows] != [p.target for p in corpus.pairs]:
        problems.append("stage 3 outputs are not the reference targets in order")
    return [parse_prompt(r["instruction"]) for r in rows], problems


def _clipped(hyp: list[str], ref: list[str], n: int) -> tuple[int, int]:
    h = Counter(" ".join(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
    r = Counter(" ".join(ref[i:i + n]) for i in range(len(ref) - n + 1))
    return sum(min(c, r[g]) for g, c in h.items()), sum(h.values())


def oracle_bleu(hyps: list[list[str]], refs: list[list[str]], max_order: int = 4) -> dict:
    """Corpus BLEU with exponential-floor smoothing, from the definition."""
    correct, total = [0] * max_order, [0] * max_order
    for h, r in zip(hyps, refs):
        for n in range(1, max_order + 1):
            c, t = _clipped(h, r, n)
            correct[n - 1] += c
            total[n - 1] += t
    hyp_len, ref_len = sum(map(len, hyps)), sum(map(len, refs))
    precisions, scale = [0.0] * max_order, 1.0
    for n in range(max_order):
        if total[n] == 0:
            continue
        if correct[n] == 0:
            scale *= 2.0
            precisions[n] = 1.0 / (scale * total[n])
        else:
            precisions[n] = correct[n] / total[n]
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    used = [precisions[n] for n in range(max_order) if total[n] > 0]
    score = bp * math.exp(sum(math.log(p) for p in used) / len(used)) * 100.0
    return {"score": score, "precisions": precisions, "brevity_penalty": bp,
            "hyp_length": hyp_len, "ref_length": ref_len}


def bleu_reports(out: Path, segments: list[EvalSegment]) -> list[str]:
    """s-BLEU and d-BLEU reports against the oracle on the generator's
    token lists; documents are their segments' tokens in order."""
    segs = sorted(segments, key=lambda s: (s.doc_id, s.seg_index))
    docs: dict[str, tuple[list, list]] = {}
    for s in segs:
        h, r = docs.setdefault(s.doc_id, ([], []))
        h.extend(s.hyp_tokens)
        r.extend(s.ref_tokens)
    expected = {
        "eval_sentence": oracle_bleu([list(s.hyp_tokens) for s in segs], [list(s.ref_tokens) for s in segs]),
        "eval_document": oracle_bleu([h for h, _ in docs.values()], [r for _, r in docs.values()]),
    }
    problems = []
    for name, want in expected.items():
        got = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        for key in ("hyp_length", "ref_length"):
            if got[key] != want[key]:
                problems.append(f"{name}: {key} {got[key]} != generator count {want[key]}")
        for key in ("score", "brevity_penalty"):
            if abs(got[key] - want[key]) > TOLERANCE:
                problems.append(f"{name}: {key} {got[key]} != oracle {want[key]}")
        if any(abs(a - b) > TOLERANCE for a, b in zip(got["precisions"], want["precisions"])):
            problems.append(f"{name}: precisions differ from the oracle")
    return problems

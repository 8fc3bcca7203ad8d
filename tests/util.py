"""Independent oracle implementations and small test helpers.

The oracles here re-derive expected results from definitions (explicit
loops, list-based n-gram counting, direct tf-idf formulas) and stay
independent of the library code paths they check.
"""

from __future__ import annotations

import math
import random

from littrans.corpus import Chapter, Corpus, Document, SentencePair
from littrans.prompts import render
from littrans.retrieval import ExemplarIndex
from littrans.tokenization import terms


def naive_bleu(
    hyp_token_lists: list[list[str]],
    ref_token_lists: list[list[str]],
    max_order: int = 4,
    smoothing: str = "exp-floor",
):
    """BLEU from the definition: joined-string n-grams, list counting,
    clipping, exponential floor, brevity penalty, geometric mean over the
    orders the hypothesis corpus can produce."""
    correct = [0] * max_order
    total = [0] * max_order
    hyp_len = sum(len(h) for h in hyp_token_lists)
    ref_len = sum(len(r) for r in ref_token_lists)
    for h, r in zip(hyp_token_lists, ref_token_lists):
        for n in range(1, max_order + 1):
            hgrams = [" ".join(h[i:i + n]) for i in range(len(h) - n + 1)]
            rgrams = [" ".join(r[i:i + n]) for i in range(len(r) - n + 1)]
            total[n - 1] += len(hgrams)
            for g in sorted(set(hgrams)):
                correct[n - 1] += min(hgrams.count(g), rgrams.count(g))
    if hyp_len == 0:
        return 0.0, [0.0] * max_order, 0.0, 0, ref_len
    precisions = [0.0] * max_order
    scale = 1.0
    for n in range(max_order):
        if total[n] == 0:
            continue
        if correct[n] == 0 and smoothing == "exp-floor":
            scale *= 2.0
            precisions[n] = 1.0 / (scale * total[n])
        else:
            precisions[n] = correct[n] / total[n]
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    effective = [precisions[n] for n in range(max_order) if total[n] > 0]
    if not effective or any(p == 0.0 for p in effective):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in effective) / len(effective)) * 100.0
    return score, precisions, bp, hyp_len, ref_len


def brute_force_scores(query, index: ExemplarIndex, exclude=None, alpha=0.5):
    """(score, exemplar) for every non-excluded exemplar, recomputing every
    quantity from the raw frequency table rather than reusing the index's
    materialized vectors."""
    n_docs = index.total_docs

    def idf(term):
        return math.log((1 + n_docs) / (1 + index.doc_freq.get(term, 0))) + 1.0

    def vector(text):
        v = {}
        for t in terms(text):
            v[t] = v.get(t, 0.0) + idf(t)
        return v

    def keywords(text):
        toks = terms(text)
        weights = {}
        first = {}
        for i, t in enumerate(toks):
            weights[t] = weights.get(t, 0.0) + idf(t)
            if t not in first:
                first[t] = i
        ranked = sorted(weights, key=lambda t: (-weights[t], first[t]))
        return set(ranked[:index.keyword_count])

    qv = vector(query)
    qk = keywords(query)
    scored = []
    for ex in index.exemplars:
        if exclude is not None and exclude(ex.doc_id, ex.seg_index):
            continue
        ev = vector(ex.source)
        dot = sum(w * ev.get(t, 0.0) for t, w in qv.items())
        nq = math.sqrt(sum(w * w for w in qv.values()))
        ne = math.sqrt(sum(w * w for w in ev.values()))
        cos = dot / (nq * ne) if nq > 0 and ne > 0 else 0.0
        ek = keywords(ex.source)
        union = qk | ek
        jac = len(qk & ek) / len(union) if union else 0.0
        scored.append((alpha * cos + (1 - alpha) * jac, ex))
    return scored


def brute_force_top_k(query, index: ExemplarIndex, k, exclude=None, alpha=0.5):
    """Exhaustive score-and-sort over brute_force_scores."""
    scored = [item for item in brute_force_scores(query, index, exclude, alpha) if item[0] > 0.0]
    scored.sort(key=lambda item: (-item[0], item[1].doc_id, item[1].seg_index))
    return [ex for _s, ex in scored[:k]]


def make_document(doc_id, sentences, chapter_breaks=(), chapter_prefix="c"):
    """Build a Document from sentence strings or (source, target) tuples;
    chapter_breaks are seg_index values that open a new chapter."""
    chapters = []
    current = []
    chapter_no = 0
    for seg, item in enumerate(sentences):
        if seg in chapter_breaks and current:
            chapters.append(Chapter(f"{chapter_prefix}{chapter_no}", tuple(current)))
            chapter_no += 1
            current = []
        if isinstance(item, tuple):
            source, target = item
        else:
            source, target = item, None
        current.append(
            SentencePair(
                doc_id=doc_id,
                chapter_id=f"{chapter_prefix}{chapter_no}",
                seg_index=seg,
                source=source,
                target=target,
            )
        )
    if current:
        chapters.append(Chapter(f"{chapter_prefix}{chapter_no}", tuple(current)))
    return Document(doc_id=doc_id, chapters=tuple(chapters))


def make_corpus(docs, monolingual=False, **meta):
    return Corpus(documents=tuple(docs), monolingual=monolingual, **meta)


def random_words(rng: random.Random, vocab, low=1, high=8):
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(low, high)))


class CapturingBackend:
    """Wraps a backend and records every PromptSpec plus its rendered text."""

    def __init__(self, inner, template):
        self.inner = inner
        self.template = template
        self.capabilities = inner.capabilities
        self.specs = []
        self.rendered = []

    def translate(self, prompt):
        self.specs.append(prompt)
        self.rendered.append(render(prompt, self.template))
        return self.inner.translate(prompt)


class CountingBackend:
    """Counts calls; translation echoes the source."""

    def __init__(self):
        from littrans.backend import BackendCapabilities

        self.capabilities = BackendCapabilities(name="counting")
        self.calls = 0

    def translate(self, prompt):
        self.calls += 1
        return prompt.current_source

"""Independent oracle implementations and small test helpers.

The oracles here re-derive expected results from definitions (explicit
loops, list-based n-gram counting, direct tf-idf formulas) and stay
independent of the library code paths they check.
"""

from __future__ import annotations

import math
import random
import unicodedata
from collections import Counter

from littrans import retrieval
from littrans.corpus import Chapter, Corpus, Document, SentencePair
from littrans.prompts import render
from littrans.retrieval import ExemplarIndex
from littrans.stages import InterlinearDocument, ParagraphUnit
from littrans.tokenization import _CJK_RANGES, cjk_ratio, terms


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


def _pad_pairs(text: str, left, right, pad) -> str:
    # leftmost non-overlapping pairs (a, b) with left(a) and right(b)
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if i + 1 < n and left(text[i]) and right(text[i + 1]):
            out.append(pad(text[i], text[i + 1]))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def naive_tokenize_intl(text: str, lowercase: bool = False) -> list[str]:
    """intl-13a tokens one character at a time, from the rules: join
    hyphenated line breaks, control characters become spaces, punctuation
    not adjacent to a number (N*) and every symbol are padded with spaces."""

    category = unicodedata.category

    def punct(ch):
        return category(ch).startswith("P")

    def non_number(ch):
        return not category(ch).startswith("N")

    if lowercase:
        text = text.lower()
    text = text.rstrip().replace("-\n", "")
    text = "".join(" " if category(c) == "Cc" else c for c in text)
    text = _pad_pairs(text, non_number, punct, lambda a, b: f"{a} {b} ")
    text = _pad_pairs(text, punct, non_number, lambda a, b: f" {a} {b}")
    text = "".join(f" {c} " if category(c).startswith("S") else c for c in text)
    return text.split()


def naive_is_cjk_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def naive_segment_text(text: str) -> list[str]:
    """The tokens of littrans.tokenization (``_TOKEN.findall``), one
    character at a time."""
    tokens: list[str] = []
    word: list[str] = []
    for ch in text:
        if naive_is_cjk_char(ch):
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(ch)
        elif ch.isspace():
            if word:
                tokens.append("".join(word))
                word = []
        else:
            word.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


def naive_cjk_ratio(text: str) -> float:
    """tokenization.cjk_ratio one character at a time."""
    chars = [c for c in text if not c.isspace()]
    if not chars:
        return 0.0
    return sum(1 for c in chars if naive_is_cjk_char(c)) / len(chars)


def source_doc_freq(index: ExemplarIndex) -> Counter:
    """Document frequency of every term, counted from the pool's sources
    with terms(), never read from the index."""
    return Counter(t for ex in index.exemplars for t in set(terms(ex.source)))


def brute_force_scores(query, index: ExemplarIndex, exclude=None, alpha=0.5):
    """(score, exemplar) for every non-excluded exemplar, recomputing every
    quantity from the pool's sources rather than reusing the index's
    postings or materialized vectors."""
    n_docs = index.total_docs
    doc_freq = source_doc_freq(index)

    def idf(term):
        return math.log((1 + n_docs) / (1 + doc_freq[term])) + 1.0

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


def full_scan_top_k(query, index: ExemplarIndex, k, exclude=None, alpha=0.5):
    """top_k by scoring every non-excluded exemplar with retrieval._score.

    Vectors are weighed here from the document frequencies of the pool's
    sources, never from the index's postings or caches, with the same
    arithmetic as the index, so the floats are the ones top_k compares and
    the ids must match exactly."""
    n_docs = index.total_docs
    doc_freq = source_doc_freq(index)

    def weigh(counts):
        idf = lambda t: retrieval._idf(n_docs, doc_freq[t])  # noqa: E731
        return retrieval._weighed(counts, map(idf, counts), index.keyword_count)

    q = weigh(Counter(terms(query)))
    scored = []
    for ex in index.exemplars:
        if exclude is not None and exclude(ex.doc_id, ex.seg_index):
            continue
        score = retrieval._score(q, weigh(ex.term_counts), alpha)[0]
        if score > 0.0:
            scored.append((score, ex))
    scored.sort(key=lambda item: (-item[0], item[1].doc_id, item[1].seg_index))
    return [ex for _s, ex in scored[:k]]


def per_term_norm(u):
    """retrieval._norm one term at a time: the same products, summed in the
    same order."""
    return math.sqrt(sum(w * w for w in u.values()))


def per_term_cosine(u, norm_u, v, norm_v):
    """retrieval._cosine one shared term at a time, over the smaller vector."""
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    return dot / (norm_u * norm_v)


def per_term_vector(counts, idf, keyword_count):
    """retrieval._weighed with idf(t) per term, one term at a time: weights
    c * idf(t) in counts order, their norm, and the keyword_count heaviest
    terms (first occurrence breaks ties)."""
    weights = {t: c * idf(t) for t, c in counts.items()}
    keywords = sorted(weights, key=weights.__getitem__, reverse=True)[:keyword_count]
    return weights, per_term_norm(weights), frozenset(keywords)


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


def make_corpus(docs, **meta):
    return Corpus(documents=tuple(docs), **meta)


def naive_pack(items, too_big):
    """Greedy packing that re-evaluates the whole candidate group for every
    item: each item joins the open group unless too_big(group + [item])."""
    group = []
    for item in items:
        if group and too_big(group + [item]):
            yield group
            group = []
        group.append(item)
    if group:
        yield group


def naive_stage1_paragraphs(corpus, side, budget, tokenizer, joiner):
    """Stage 1 by re-tokenizing each candidate paragraph in full."""
    units = []
    for doc in corpus.documents:
        for chapter in doc.chapters:
            texts = [p.source if side == "source" else p.target for p in chapter.pairs]
            if joiner is None:
                sep = "" if cjk_ratio("".join(texts)) > 0.5 else " "
            else:
                sep = joiner
            for group in naive_pack(texts, lambda g: tokenizer(sep.join(g)) > budget):
                text = sep.join(group)
                count = tokenizer(text)
                units.append(ParagraphUnit(doc.doc_id, chapter.chapter_id, text, count, count > budget))
    return units


def naive_stage2_documents(corpus, budget, tokenizer):
    """Stage 2 by summing each candidate document's pair costs in full."""
    docs = []
    for doc in corpus.documents:
        pairs = [(p.source, p.target) for p in doc.pairs()]

        def cost(group):
            return sum(tokenizer(s) + tokenizer(t) for s, t in group)

        for part, group in enumerate(naive_pack(pairs, lambda g: cost(g) > budget)):
            docs.append(InterlinearDocument(f"{doc.doc_id}#p{part}", tuple(group), cost(group) > budget))
    return docs


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

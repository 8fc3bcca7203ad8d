"""Incremental document decoding.

A document is translated strictly in sentence order; each step's prompt
carries the previous history-size (source, hypothesis) pairs and the best
style exemplars for the current sentence. By default exemplars come from
the document's own already-translated prefix: a per-document exemplar
index that gets each sentence and its hypothesis appended once it is
decoded. Passing an index switches to an external, static exemplar pool.

Within a document decoding is sequential by construction. Across
documents run_corpus fans out over a thread pool; results are ordered by
doc_id, so the output is identical at any parallelism level.
"""

from __future__ import annotations

import re
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from typing import Callable, Sequence

from .backend import BackendError, TranslationBackend
from .corpus import Corpus, Document
from .prompts import (
    ContextEntry,
    ExemplarEntry,
    PromptSpec,
    PromptTemplate,
    prompt_hash,
)
from .retrieval import (
    DEFAULT_KEYWORD_COUNT,
    ExcludeFn,
    Exemplar,
    ExemplarIndex,
    top_k,
)

FALLBACK_COPY_SOURCE = "copy_source"
FALLBACK_ABORT = "abort"


class DocumentAborted(Exception):
    def __init__(self, doc_id: str, seg_index: int, cause: BackendError):
        super().__init__(f"{doc_id}#{seg_index}: {cause}")
        self.doc_id = doc_id
        self.seg_index = seg_index
        self.cause = cause


@dataclass(frozen=True)
class DecodingConfig:
    """Everything that shapes a prompt or a decoding step.

    The config loader builds it from the decoding: and retrieval: sections,
    so range errors name those keys; this is the only place they are
    checked.
    """

    history_size: int = 3
    exemplar_count: int = 2
    similarity_alpha: float = 0.5
    keyword_count: int = DEFAULT_KEYWORD_COUNT
    template: PromptTemplate = field(default_factory=PromptTemplate)
    max_attempts: int = 3
    fallback: str = FALLBACK_COPY_SOURCE
    backoff_initial: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.history_size < 0 or self.exemplar_count < 0:
            raise ValueError("decoding history_size/exemplar_count must be >= 0")
        if self.max_attempts < 1:
            raise ValueError(
                "decoding.retry must be >= 1: every sentence needs one backend attempt"
            )
        if not 0.0 <= self.similarity_alpha <= 1.0:
            raise ValueError("retrieval.similarity_alpha must be in [0, 1]")
        if self.keyword_count < 1:
            raise ValueError("retrieval.keyword_count must be >= 1")
        if self.fallback not in (FALLBACK_COPY_SOURCE, FALLBACK_ABORT):
            raise ValueError(f"unknown fallback policy {self.fallback!r}")


@dataclass(frozen=True)
class SentenceTrace:
    seg_index: int
    prompt_sha256: str
    attempts: tuple[str, ...]  # error kind per failed attempt, "ok" for success
    failed: bool
    exemplar_ids: tuple[str, ...]


@dataclass(frozen=True)
class DocumentTranslation:
    doc_id: str
    sources: tuple[str, ...]
    hypotheses: tuple[str, ...]
    traces: tuple[SentenceTrace, ...]


def exclude_at_or_after(doc_id: str, seg_index: int) -> ExcludeFn:
    """No-future rule: rejects the given sentence and everything after it
    in the same document."""
    return lambda d, s: d == doc_id and s >= seg_index


def clean_hypothesis(text: str) -> str:
    """Normalize backend output: trim whitespace, drop one layer of
    wrapping quotes, collapse internal newlines to spaces."""
    text = text.strip()
    for open_q, close_q in (('"', '"'), ("'", "'"), ("“", "”"), ("「", "」")):
        if len(text) >= 2 and text.startswith(open_q) and text.endswith(close_q):
            text = text[1:-1].strip()
            break
    return re.sub(r"\s*[\r\n]+\s*", " ", text)


def build_prompt(
    doc_id: str,
    done: Sequence[ContextEntry],
    source: str,
    hits: Sequence[Exemplar],
    config: DecodingConfig,
) -> PromptSpec:
    """The prompt for the sentence after `done` in document `doc_id`.

    The single prompt assembler: the decoder passes the model's own
    hypotheses as `done`, stage 3 the reference targets. The context block
    is the last min(history_size, len(done)) entries; every hit must lie
    strictly before the current sentence when it comes from this document.
    """
    cursor = len(done)
    for e in hits:
        if e.doc_id == doc_id and e.seg_index >= cursor:
            raise ValueError(
                f"exemplar {e.exemplar_id} is not strictly before {doc_id}#{cursor}"
            )
    return PromptSpec(
        system_text=config.template.system,
        context_block=tuple(done[cursor - min(config.history_size, cursor):]),
        exemplar_block=tuple(
            ExemplarEntry(e.exemplar_id, e.doc_id, e.seg_index, e.source, e.target)
            for e in hits
        ),
        current_source=source,
    )


def _attempt_translation(
    backend: TranslationBackend,
    spec: PromptSpec,
    config: DecodingConfig,
    sleep: Callable[[float], None],
) -> tuple[str | None, list[str]]:
    """Up to max_attempts backend calls with exponential backoff; returns
    (hypothesis or None, attempt outcomes)."""
    attempts: list[str] = []
    delay = config.backoff_initial
    for i in range(config.max_attempts):
        try:
            raw = backend.translate(spec)
            hyp = clean_hypothesis(raw)
            if not hyp:
                raise BackendError("empty_output", "backend returned blank text")
            attempts.append("ok")
            return hyp, attempts
        except BackendError as err:
            attempts.append(err.kind)
            if not err.retryable:
                break
            if i + 1 < config.max_attempts and delay > 0:
                sleep(delay)
                delay *= config.backoff_factor
    return None, attempts


def translate_document(
    doc: Document,
    backend: TranslationBackend,
    index: ExemplarIndex | None = None,
    config: DecodingConfig = DecodingConfig(),
    sleep: Callable[[float], None] = time.sleep,
) -> DocumentTranslation:
    """Translate one document incrementally.

    index=None with exemplar_count > 0 retrieves from the document's own
    translated prefix; a given index is used as a static external pool.
    On retry exhaustion the fallback policy applies: copy_source emits the
    source verbatim and marks the trace failed, abort raises
    DocumentAborted.
    """
    own_prefix = index is None and config.exemplar_count > 0
    if own_prefix:
        index = ExemplarIndex(config.keyword_count)
    history: list[ContextEntry] = []
    sources: list[str] = []
    hypotheses: list[str] = []
    traces: list[SentenceTrace] = []

    for pair in doc.pairs():
        hits = []
        if config.exemplar_count > 0:
            hits = top_k(
                pair.source,
                index,
                config.exemplar_count,
                exclude=exclude_at_or_after(doc.doc_id, pair.seg_index),
                alpha=config.similarity_alpha,
            )
        spec = build_prompt(doc.doc_id, history, pair.source, hits, config)
        hyp, attempts = _attempt_translation(backend, spec, config, sleep)
        failed = hyp is None
        if failed:
            if config.fallback == FALLBACK_ABORT:
                raise DocumentAborted(
                    doc.doc_id, pair.seg_index, BackendError(attempts[-1])
                )
            hyp = pair.source
        sources.append(pair.source)
        hypotheses.append(hyp)
        traces.append(
            SentenceTrace(
                seg_index=pair.seg_index,
                prompt_sha256=prompt_hash(spec, config.template),
                attempts=tuple(attempts),
                failed=failed,
                exemplar_ids=tuple(e.exemplar_id for e in spec.exemplar_block),
            )
        )
        history.append(ContextEntry(pair.seg_index, pair.source, hyp))
        if own_prefix:
            index.append(pair.source, hyp, doc.doc_id, pair.seg_index)

    return DocumentTranslation(
        doc_id=doc.doc_id,
        sources=tuple(sources),
        hypotheses=tuple(hypotheses),
        traces=tuple(traces),
    )


@dataclass
class RunManifest:
    config: dict
    started: str
    finished: str
    documents: int
    translated_documents: int
    aborted_documents: list[str]
    sentences: int
    failed_sentences: int

    def to_dict(self) -> dict:
        return asdict(self)


def run_corpus(
    corpus: Corpus,
    backend: TranslationBackend,
    index: ExemplarIndex | None = None,
    config: DecodingConfig = DecodingConfig(),
    parallelism: int = 1,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[DocumentTranslation], RunManifest]:
    """Translate every document, at most `parallelism` concurrently.

    Documents are independent; output order is doc_id order regardless of
    scheduling. Aborted documents (fallback=abort) are skipped and listed
    in the manifest; the rest complete.
    """
    started = datetime.now(timezone.utc).isoformat()
    results: list[DocumentTranslation] = []
    aborted: list[str] = []

    # set on an unexpected failure or when the caller stops waiting: no
    # document starts after it, and the FIFO queue puts every skipped
    # document's future after the failed one's
    stop = threading.Event()

    def work(doc: Document) -> DocumentTranslation:
        if stop.is_set():
            raise CancelledError(doc.doc_id)
        try:
            return translate_document(doc, backend, index, config, sleep)
        except DocumentAborted:
            raise
        except Exception:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = {pool.submit(work, doc): doc for doc in corpus.documents}
        try:
            for future, doc in futures.items():
                try:
                    results.append(future.result())
                except DocumentAborted:
                    aborted.append(doc.doc_id)
        finally:
            stop.set()

    results.sort(key=lambda r: r.doc_id)
    aborted.sort()
    manifest = RunManifest(
        config=asdict(config),
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        documents=len(corpus.documents),
        translated_documents=len(results),
        aborted_documents=aborted,
        sentences=sum(len(r.hypotheses) for r in results),
        failed_sentences=sum(1 for r in results for t in r.traces if t.failed),
    )
    return results, manifest

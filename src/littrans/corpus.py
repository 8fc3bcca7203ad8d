"""Bilingual literary corpus model: novel -> chapter -> sentence pair.

Corpora are immutable after construction and safe to share across threads.
Loaders enforce the structural invariants (raising CorpusFormatError);
``validate`` reports violations on arbitrary corpora without raising, so
hand-built corpora can be checked too.

Record file format: UTF-8 JSONL, one object per line with fields
``doc_id`` (str), ``chapter_id`` (str, optional), ``seg_index`` (int,
optional), ``source`` (str), ``target`` (str, optional). Text is
normalized only by trimming trailing line terminators; no Unicode
normalization, so scores stay byte-faithful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


class CorpusFormatError(Exception):
    """Raised when a corpus file violates the record contract."""


@dataclass(frozen=True)
class SentencePair:
    doc_id: str
    chapter_id: str
    seg_index: int
    source: str
    target: str | None = None


@dataclass(frozen=True)
class Chapter:
    chapter_id: str
    pairs: tuple[SentencePair, ...]


@dataclass(frozen=True)
class Document:
    doc_id: str
    chapters: tuple[Chapter, ...]

    def pairs(self) -> Iterator[SentencePair]:
        for chapter in self.chapters:
            yield from chapter.pairs

    @property
    def sentence_count(self) -> int:
        return sum(len(c.pairs) for c in self.chapters)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    language_pair: str = ""
    source_name: str = ""
    monolingual: bool = False

    @property
    def is_parallel(self) -> bool:
        return not self.monolingual and all(
            p.target is not None for d in self.documents for p in d.pairs()
        )

    @property
    def sentence_count(self) -> int:
        return sum(d.sentence_count for d in self.documents)

    def document(self, doc_id: str) -> Document:
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        raise KeyError(doc_id)


@dataclass(frozen=True)
class ValidationIssue:
    doc_id: str
    chapter_id: str | None
    seg_index: int | None
    message: str

    def __str__(self) -> str:
        loc = self.doc_id
        if self.chapter_id is not None:
            loc += f"/{self.chapter_id}"
        if self.seg_index is not None:
            loc += f"#{self.seg_index}"
        return f"{loc}: {self.message}"


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "corpus valid"
        return "\n".join(str(i) for i in self.issues)


def _trim(text: str) -> str:
    return text.rstrip("\r\n")


def _build_document(doc_id: str, records: list[tuple[int, dict]]) -> Document:
    """Assemble one Document from (line_number, record) pairs.

    Records missing seg_index get file order; chapters missing an id share
    the single implicit chapter "".
    """
    with_seg = [r for r in records if r[1].get("seg_index") is not None]
    if with_seg and len(with_seg) != len(records):
        line = next(ln for ln, r in records if r.get("seg_index") is None)
        raise CorpusFormatError(
            f"line {line}: document {doc_id!r} mixes records with and without seg_index"
        )
    if with_seg:
        seen: dict[int, int] = {}
        for line, rec in records:
            seg = rec["seg_index"]
            if not isinstance(seg, int) or isinstance(seg, bool):
                raise CorpusFormatError(f"line {line}: seg_index must be an integer")
            if seg in seen:
                raise CorpusFormatError(
                    f"line {line}: duplicate segment (doc_id={doc_id!r}, "
                    f"seg_index={seg}) already defined at line {seen[seg]}"
                )
            seen[seg] = line
        records = sorted(records, key=lambda r: r[1]["seg_index"])
        indexes = [rec["seg_index"] for _, rec in records]
        if indexes != list(range(len(indexes))):
            raise CorpusFormatError(
                f"document {doc_id!r}: seg_index not contiguous from 0 (got {indexes})"
            )
    targets = [rec.get("target") is not None for _, rec in records]
    if any(targets) and not all(targets):
        line = next(ln for ln, rec in records if rec.get("target") is None)
        raise CorpusFormatError(
            f"line {line}: document {doc_id!r} mixes pairs with and without targets"
        )

    pairs = []
    for seg, (line, rec) in enumerate(records):
        source = _trim(rec["source"])
        if not source.strip():
            raise CorpusFormatError(f"line {line}: empty source text")
        target = rec.get("target")
        pairs.append(
            SentencePair(
                doc_id=doc_id,
                chapter_id=str(rec.get("chapter_id", "") or ""),
                seg_index=seg,
                source=source,
                target=_trim(target) if target is not None else None,
            )
        )

    chapters: list[Chapter] = []
    seen_chapters: set[str] = set()
    current: list[SentencePair] = []
    for pair in pairs:
        if current and pair.chapter_id != current[-1].chapter_id:
            chapters.append(Chapter(current[-1].chapter_id, tuple(current)))
            current = []
        if not current:
            if pair.chapter_id in seen_chapters:
                raise CorpusFormatError(
                    f"document {doc_id!r}: chapter {pair.chapter_id!r} restarts "
                    f"after other chapters (chapter order must follow seg_index)"
                )
            seen_chapters.add(pair.chapter_id)
        current.append(pair)
    if current:
        chapters.append(Chapter(current[-1].chapter_id, tuple(current)))
    return Document(doc_id=doc_id, chapters=tuple(chapters))


def _finish_corpus(
    docs: dict[str, list[tuple[int, dict]]], language_pair: str, source_name: str
) -> Corpus:
    documents = tuple(
        _build_document(doc_id, docs[doc_id]) for doc_id in sorted(docs)
    )
    has_target = [
        next(iter(doc.pairs())).target is not None for doc in documents if doc.sentence_count
    ]
    if has_target and any(has_target) and not all(has_target):
        missing = next(
            d.doc_id
            for d in documents
            if next(iter(d.pairs())).target is None
        )
        raise CorpusFormatError(
            f"corpus mixes parallel and target-less documents (e.g. {missing!r}); "
            f"split the file or add the missing targets"
        )
    monolingual = bool(has_target) and not has_target[0]
    return Corpus(
        documents=documents,
        language_pair=language_pair,
        source_name=source_name,
        monolingual=monolingual,
    )


def load_records(
    path: str | Path, language_pair: str = "", source_name: str = ""
) -> Corpus:
    """Load a corpus from a JSONL record file.

    Documents are ordered by doc_id, so any on-disk permutation of records
    carrying seg_index loads to the same Corpus.
    """
    path = Path(path)
    docs: dict[str, list[tuple[int, dict]]] = {}
    with path.open(encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise CorpusFormatError(f"line {line_no}: record must be an object")
            for key in ("doc_id", "source"):
                if not isinstance(rec.get(key), str):
                    raise CorpusFormatError(f"line {line_no}: missing or non-string {key!r}")
            if rec.get("target") is not None and not isinstance(rec["target"], str):
                raise CorpusFormatError(f"line {line_no}: non-string target")
            docs.setdefault(rec["doc_id"], []).append((line_no, rec))
    return _finish_corpus(docs, language_pair, source_name or path.name)


def _read_lines(path: str | Path) -> list[str]:
    with Path(path).open(encoding="utf-8") as fh:
        return [_trim(l) for l in fh]


def load_line_aligned(
    src_path: str | Path,
    tgt_path: str | Path | None,
    boundary_marker: str = "",
    language_pair: str = "",
    source_name: str = "",
) -> Corpus:
    """Load parallel plain-text files, one sentence per line.

    Lines equal to ``boundary_marker`` (after trimming the newline) split
    documents; the split must occur at identical lines in both files.
    ``tgt_path=None`` loads a monolingual corpus from the source file only.
    """
    src_lines = _read_lines(src_path)
    if tgt_path is None:
        tgt_lines: list[str] | None = None
    else:
        tgt_lines = _read_lines(tgt_path)
        if len(src_lines) != len(tgt_lines):
            raise CorpusFormatError(
                f"line count mismatch: {len(src_lines)} source lines vs "
                f"{len(tgt_lines)} target lines"
            )

    docs: dict[str, list[tuple[int, dict]]] = {}
    doc_no = 0
    started = False
    for i, src in enumerate(src_lines):
        src_is_boundary = src == boundary_marker
        if tgt_lines is not None:
            tgt_is_boundary = tgt_lines[i] == boundary_marker
            if src_is_boundary != tgt_is_boundary:
                raise CorpusFormatError(
                    f"document boundary mismatch at line {i + 1}: "
                    f"source {'is' if src_is_boundary else 'is not'} a boundary, "
                    f"target {'is' if tgt_is_boundary else 'is not'}"
                )
        if src_is_boundary:
            if started:
                doc_no += 1
                started = False
            continue
        started = True
        rec: dict = {"source": src}
        if tgt_lines is not None:
            rec["target"] = tgt_lines[i]
        docs.setdefault(f"doc{doc_no:04d}", []).append((i + 1, rec))
    return _finish_corpus(docs, language_pair, source_name or Path(src_path).name)


def write_records(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus in the record format; load_records round-trips it."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            for pair in doc.pairs():
                rec: dict = {"doc_id": pair.doc_id}
                if pair.chapter_id:
                    rec["chapter_id"] = pair.chapter_id
                rec["seg_index"] = pair.seg_index
                rec["source"] = pair.source
                if pair.target is not None:
                    rec["target"] = pair.target
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def validate(corpus: Corpus) -> ValidationReport:
    """Check every type invariant; returns a report instead of raising."""
    report = ValidationReport()
    seen_docs: set[str] = set()
    doc_has_target: dict[str, bool] = {}
    for doc in corpus.documents:
        if doc.doc_id in seen_docs:
            report.issues.append(
                ValidationIssue(doc.doc_id, None, None, "duplicate doc_id")
            )
        seen_docs.add(doc.doc_id)

        pairs = list(doc.pairs())
        indexes = [p.seg_index for p in pairs]
        if sorted(indexes) != list(range(len(indexes))):
            report.issues.append(
                ValidationIssue(
                    doc.doc_id, None, None,
                    f"non-contiguous seg_index (got {sorted(indexes)})",
                )
            )
        elif indexes != sorted(indexes):
            report.issues.append(
                ValidationIssue(
                    doc.doc_id, None, None,
                    "chapter order disagrees with seg_index order",
                )
            )
        seen_chapters: set[str] = set()
        for chapter in doc.chapters:
            if chapter.chapter_id in seen_chapters:
                report.issues.append(
                    ValidationIssue(
                        doc.doc_id, chapter.chapter_id, None,
                        "chapter restarts after other chapters",
                    )
                )
            seen_chapters.add(chapter.chapter_id)
        for pair in pairs:
            if not pair.source.strip():
                report.issues.append(
                    ValidationIssue(
                        pair.doc_id, pair.chapter_id, pair.seg_index, "empty source"
                    )
                )
        targets = [p.target is not None for p in pairs]
        if any(targets) and not all(targets):
            report.issues.append(
                ValidationIssue(
                    doc.doc_id, None, None,
                    "document mixes pairs with and without targets",
                )
            )
        if pairs:
            doc_has_target[doc.doc_id] = all(targets)

    if doc_has_target and not corpus.monolingual:
        for doc_id, has in doc_has_target.items():
            if not has:
                report.issues.append(
                    ValidationIssue(
                        doc_id, None, None,
                        "missing targets in a corpus not flagged monolingual",
                    )
                )
    return report

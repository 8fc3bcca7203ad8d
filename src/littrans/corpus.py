"""Bilingual literary corpus model: novel -> chapter -> sentence pair.

Corpora are immutable after construction and safe to share across threads.
The loaders are the only check of the structural invariants and of the
text rules: each violation raises CorpusFormatError naming the offending
line or document, so every Corpus they return is valid.

Record file format: UTF-8 JSONL, one object per line with fields
``doc_id`` (str), ``chapter_id`` (str, optional), ``seg_index`` (int,
optional), ``source`` (str), ``target`` (str, optional). Text rules,
the same for both loaders and for ``source`` and ``target``:

- trailing ``\r`` and ``\n`` are trimmed; there is no other
  normalization (no Unicode normalization), so scores stay byte-faithful;
- a text that is empty or whitespace-only after trimming is rejected;
- a text holding any line boundary ``str.splitlines()`` splits on
  (``\n``, ``\r``, ``\v``, ``\f``, ``\x1c``-``\x1e``, ``\x85``, U+2028,
  U+2029) is rejected, so every text fits on one line of a
  line-oriented output (the stage 2 interlinear file);
- targets are all or none: either every record has one or none does.

While a loader groups records into documents it holds one row per
record, the tuple ``(line, seg_index, chapter_id, source, target)``, not
the parsed object, and it checks the texts only when it builds each
document. A loaded corpus holds one ``chapter_id`` string per distinct
chapter id of each document, shared by that chapter's pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator

# one record while a loader groups it: (line, seg_index, chapter_id, source, target)
Row = tuple[int, object, str, str, str | None]


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

    @property
    def is_parallel(self) -> bool:
        return all(p.target is not None for d in self.documents for p in d.pairs())

    @property
    def sentence_count(self) -> int:
        return sum(d.sentence_count for d in self.documents)


def _trim(text: str) -> str:
    return text.rstrip("\r\n")


def _text(line: int, key: str, raw: str) -> str:
    """The text of field ``key`` as stored: trimmed, non-blank, one line,
    encodable as UTF-8 (a JSON escape can hold a lone surrogate)."""
    text = _trim(raw)
    if not text.strip():
        raise CorpusFormatError(f"line {line}: empty {key} text")
    if text.splitlines() != [text]:
        raise CorpusFormatError(f"line {line}: {key} text contains a line break")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusFormatError(
            f"line {line}: {key} text cannot be encoded as UTF-8 ({exc.reason})"
        ) from exc
    return text


def read_jsonl(path: str | Path, str_fields: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) for each non-blank line of a JSONL file.

    Invalid JSON, a record that is not an object and a missing or
    non-string field named in ``str_fields`` raise CorpusFormatError
    naming the line.
    """
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise CorpusFormatError(f"line {line_no}: record must be an object")
            for key in str_fields:
                if not isinstance(rec.get(key), str):
                    raise CorpusFormatError(f"line {line_no}: missing or non-string {key!r}")
            yield line_no, rec


def claim_segment(
    seen: dict[tuple[str, int], int], line: int, doc_id: str, seg_index: object
) -> None:
    """Record in ``seen`` that ``line`` defines segment (doc_id, seg_index).

    A seg_index that is not an integer (a bool is not) raises
    CorpusFormatError, and so does a segment that an earlier line already
    defined, with both lines named.
    """
    if not isinstance(seg_index, int) or isinstance(seg_index, bool):
        raise CorpusFormatError(f"line {line}: seg_index must be an integer")
    first = seen.setdefault((doc_id, seg_index), line)
    if first != line:
        raise CorpusFormatError(
            f"line {line}: duplicate segment (doc_id={doc_id!r}, "
            f"seg_index={seg_index}) already defined at line {first}"
        )


def _build_document(doc_id: str, rows: list[Row]) -> Document:
    """Assemble one Document from its rows, which are in file order.

    Rows missing seg_index get file order; chapters missing an id share
    the single implicit chapter "". Each run of consecutive pairs with one
    chapter_id is a chapter; a chapter_id that starts a second run raises
    CorpusFormatError. The texts are checked here, so a row holds them as
    read, and the document's pairs share one string per chapter_id.
    """
    with_seg = sum(seg_index is not None for _, seg_index, *_ in rows)
    if with_seg and with_seg != len(rows):
        line = next(line for line, seg_index, *_ in rows if seg_index is None)
        raise CorpusFormatError(
            f"line {line}: document {doc_id!r} mixes records with and without seg_index"
        )
    if with_seg:
        seen: dict[tuple[str, int], int] = {}
        for line, seg_index, *_ in rows:
            claim_segment(seen, line, doc_id, seg_index)
        rows = sorted(rows, key=itemgetter(1))
        indexes = [seg_index for _, seg_index, *_ in rows]
        if indexes != list(range(len(indexes))):
            raise CorpusFormatError(
                f"document {doc_id!r}: seg_index not contiguous from 0 (got {indexes})"
            )

    chapter_ids: dict[str, str] = {}
    pairs = [
        SentencePair(
            doc_id=doc_id,
            chapter_id=chapter_ids.setdefault(chapter_id, chapter_id),
            seg_index=seg,
            source=_text(line, "source", source),
            target=None if target is None else _text(line, "target", target),
        )
        for seg, (line, _, chapter_id, source, target) in enumerate(rows)
    ]

    chapters: list[Chapter] = []
    seen_chapters: set[str] = set()
    for chapter_id, run in groupby(pairs, key=attrgetter("chapter_id")):
        if chapter_id in seen_chapters:
            raise CorpusFormatError(
                f"document {doc_id!r}: chapter {chapter_id!r} restarts "
                f"after other chapters (chapter order must follow seg_index)"
            )
        seen_chapters.add(chapter_id)
        chapters.append(Chapter(chapter_id, tuple(run)))
    return Document(doc_id=doc_id, chapters=tuple(chapters))


def _finish_corpus(docs: dict[str, list[Row]]) -> Corpus:
    """The Corpus of the grouped rows, built in doc_id order. Each
    document's rows are dropped once it is built."""
    if docs:
        # lines are unique, so the least row is the file's first record
        first, *_, first_target = min(rows[0] for rows in docs.values())
        has_target = first_target is not None
        mixed = min(
            (line for rows in docs.values() for line, *_, target in rows
             if (target is not None) != has_target),
            default=None,
        )
        if mixed is not None:
            raise CorpusFormatError(
                f"line {mixed}: corpus mixes pairs with and without targets "
                f"(line {first} {'has a' if has_target else 'has no'} target)"
            )
    documents = tuple(_build_document(doc_id, docs.pop(doc_id)) for doc_id in sorted(docs))
    return Corpus(documents=documents)


def load_records(path: str | Path) -> Corpus:
    """Load a corpus from a JSONL record file.

    Documents are ordered by doc_id, so any on-disk permutation of records
    carrying seg_index loads to the same Corpus.
    """
    docs: dict[str, list[Row]] = {}
    for line_no, rec in read_jsonl(path, ("doc_id", "source")):
        for key in ("chapter_id", "target"):
            if rec.get(key) is not None and not isinstance(rec[key], str):
                raise CorpusFormatError(f"line {line_no}: non-string {key!r}")
        docs.setdefault(rec["doc_id"], []).append((
            line_no, rec.get("seg_index"), rec.get("chapter_id") or "",
            rec["source"], rec.get("target"),
        ))
    return _finish_corpus(docs)


def _read_lines(path: str | Path) -> list[str]:
    with Path(path).open(encoding="utf-8") as fh:
        return [_trim(l) for l in fh]


def load_line_aligned(
    src_path: str | Path,
    tgt_path: str | Path | None,
    boundary_marker: str = "",
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

    docs: dict[str, list[Row]] = {}
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
        target = None if tgt_lines is None else tgt_lines[i]
        docs.setdefault(f"doc{doc_no:04d}", []).append((i + 1, None, "", src, target))
    return _finish_corpus(docs)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write each row as one JSON object per line, UTF-8 with non-ASCII
    text unescaped; the inverse of read_jsonl."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


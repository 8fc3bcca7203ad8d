"""Training-data builders for the staged adaptation pipeline.

Stage 1 packs chapter sentences into paragraph units under a token budget
(monolingual pre-training data). Stage 2 packs aligned sentence pairs into
interlinear documents (bilingual pre-training data). Both use the one
greedy packer, _pack. Stage 3 renders context- and exemplar-augmented
instruction records whose prompts come from the decoder's own assembler,
decoder.build_prompt, and the shared renderer, so a training prompt is the
inference prompt with reference targets in the place of hypotheses. A plain
sentence-level instruction builder covers the non-contextual baseline.
Stage 3 and the baseline both walk the corpus with _reference_pairs, the one
teacher-forced walk over reference pairs.

No training happens here; everything is emitted as data files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Sequence, TypeVar

from .corpus import Corpus, Document, SentencePair
from .decoder import DecodingConfig, build_prompt, exclude_at_or_after
from .prompts import ContextEntry, check_template, render
from .retrieval import ExemplarIndex, top_k
from .tokenization import cjk_ratio, count_tokens

Tokenizer = Callable[[str], int]
T = TypeVar("T")

DEFAULT_BUDGET = 1024


# The fields of ParagraphUnit and InstructionRecord, in declaration order,
# are the keys of their JSONL rows: the CLI writes vars(row) for each.
@dataclass(frozen=True)
class ParagraphUnit:
    doc_id: str
    chapter_id: str
    text: str
    token_count: int
    over_budget: bool = False


@dataclass(frozen=True)
class InterlinearDocument:
    doc_id: str
    pairs: tuple[tuple[str, str], ...]
    over_budget: bool = False


@dataclass(frozen=True)
class InstructionRecord:
    instruction: str
    input: str
    output: str


@dataclass(frozen=True)
class InstructionTemplate:
    """Sentence-level instruction; {source} is substituted per pair."""

    instruction: str

    def __post_init__(self):
        check_template("instruction", self.instruction, {"source"}, {"source"})


DEFAULT_SENTENCE_INSTRUCTION = InstructionTemplate(
    instruction="Translate this sentence:\n{source}\nTranslation:"
)


def _require_parallel(corpus: Corpus, what: str) -> None:
    if not corpus.is_parallel:
        raise ValueError(f"{what} requires a fully parallel corpus")


def _pack(items: Iterable[tuple[T, int, int]], budget: int) -> Iterator[tuple[list[T], int]]:
    """Greedy packing in order of priced items, (item, cost alone, cost
    added after the item before it): each item joins the open group unless
    that would take the group's cost past the budget. Yields (group, cost);
    an item too big on its own forms its own group. No items give no
    groups."""
    group: list[T] = []
    cost = 0
    for item, alone, added in items:
        if group and cost + added > budget:
            yield group, cost
            group = []
        cost = cost + added if group else alone
        group.append(item)
    if group:
        yield group, cost


def _reference_pairs(
    corpus: Corpus, what: str
) -> Iterator[tuple[Document, SentencePair, Sequence[ContextEntry]]]:
    """Teacher-forced walk over a parallel corpus: yields (doc, pair, done)
    in corpus order, done being the document's earlier pairs with their
    reference targets."""
    _require_parallel(corpus, what)
    for doc in corpus.documents:
        done: list[ContextEntry] = []
        for pair in doc.pairs():
            yield doc, pair, done
            done.append(ContextEntry(pair.seg_index, pair.source, pair.target))


def build_stage1_paragraphs(
    corpus: Corpus,
    side: Literal["source", "target"] = "source",
    budget: int = DEFAULT_BUDGET,
    tokenizer: Tokenizer = count_tokens,
    joiner: str | None = None,
) -> list[ParagraphUnit]:
    """Greedy paragraph packing: a chapter's sentences are appended in
    order until the next one would push the unit past the budget.
    Paragraphs never span chapters; a single oversized sentence becomes its
    own unit flagged over_budget.

    joiner=None picks per chapter: no joiner for predominantly CJK text,
    a single space otherwise.

    Each sentence is tokenized alone and after the last character of the
    one before it, and a unit's token_count sums these prices. That is
    tokenizer(text) exactly when tokens merge only across a seam, so that
    tokenizer(a + b) - tokenizer(a) depends on a non-empty a only through
    its last character: count_tokens has this property, as does splitting
    on whitespace, and the loaders' texts are never empty.
    """
    if side == "target":
        _require_parallel(corpus, "stage 1 on the target side")
    units: list[ParagraphUnit] = []
    for doc in corpus.documents:
        for chapter in doc.chapters:
            texts = [pair.source if side == "source" else pair.target for pair in chapter.pairs]
            if joiner is None:
                sep = "" if cjk_ratio("".join(texts)) > 0.5 else " "
            else:
                sep = joiner
            tails = [""] + [text[-1:] for text in texts]
            priced = (
                (text, tokenizer(text), tokenizer(tail + sep + text) - tokenizer(tail))
                for tail, text in zip(tails, texts)
            )
            for group, count in _pack(priced, budget):
                units.append(
                    ParagraphUnit(
                        doc_id=doc.doc_id,
                        chapter_id=chapter.chapter_id,
                        text=sep.join(group),
                        token_count=count,
                        over_budget=count > budget,
                    )
                )
    return units


def format_interlinear(doc: InterlinearDocument) -> str:
    """Bit-exact serialization: per pair a `<src> ` line then a `<tgt> `
    line. The corpus loaders guarantee that each text is one line."""
    return "".join(f"<src> {source}\n<tgt> {target}\n" for source, target in doc.pairs)


def parse_interlinear(text: str, doc_id: str = "") -> InterlinearDocument:
    """Inverse of format_interlinear, parse(format(d), d.doc_id) == d,
    whenever no text of d holds a line boundary that str.splitlines()
    splits on: true of every text the corpus loaders accept."""
    pairs: list[tuple[str, str]] = []
    pending_source: str | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("<src> "):
            if pending_source is not None:
                raise ValueError(
                    f"line {line_no}: two consecutive <src> lines (missing <tgt>)"
                )
            pending_source = line[len("<src> "):]
        elif line.startswith("<tgt> "):
            if pending_source is None:
                raise ValueError(f"line {line_no}: target line before any source line")
            pairs.append((pending_source, line[len("<tgt> "):]))
            pending_source = None
        elif not line.strip():
            raise ValueError(
                f"line {line_no}: blank line inside a document (document separator?)"
            )
        else:
            raise ValueError(f"line {line_no}: unknown tag in {line!r}")
    if pending_source is not None:
        raise ValueError("trailing <src> line without a <tgt> line")
    return InterlinearDocument(doc_id=doc_id, pairs=tuple(pairs))


def build_stage2_documents(
    corpus: Corpus,
    budget: int = DEFAULT_BUDGET,
    tokenizer: Tokenizer = count_tokens,
) -> list[InterlinearDocument]:
    """Pack consecutive sentence pairs of each document into interlinear
    documents, greedily, under a combined source+target token budget.
    Never packs across source documents."""
    _require_parallel(corpus, "stage 2")
    docs: list[InterlinearDocument] = []
    for doc in corpus.documents:
        # a pair costs the same alone and after another pair
        costs = [tokenizer(p.source) + tokenizer(p.target) for p in doc.pairs()]
        for part, (group, cost) in enumerate(_pack(zip(doc.pairs(), costs, costs), budget)):
            docs.append(
                InterlinearDocument(
                    doc_id=f"{doc.doc_id}#p{part}",
                    pairs=tuple((p.source, p.target) for p in group),
                    over_budget=cost > budget,
                )
            )
    return docs


def build_sentence_instructions(
    corpus: Corpus,
    template: InstructionTemplate = DEFAULT_SENTENCE_INSTRUCTION,
) -> list[InstructionRecord]:
    """One plain record per pair: no context, no exemplars."""
    return [
        InstructionRecord(
            instruction=template.instruction.format(source=pair.source),
            input=pair.source,
            output=pair.target,
        )
        for _, pair, _ in _reference_pairs(corpus, "sentence instruction data")
    ]


def build_stage3_instructions(
    corpus: Corpus,
    decoding_config: DecodingConfig,
    index: ExemplarIndex | None,
) -> list[InstructionRecord]:
    """Context- and exemplar-augmented records, one per pair.

    The context block holds the previous history-size pairs (source plus
    reference target, teacher forcing); exemplars come from the index with
    the current pair and everything after it in the same document excluded
    (index may be None when exemplar_count is 0). The prompt is assembled
    by decoder.build_prompt with the reference targets as the finished
    pairs, so training and inference see identical text.
    """
    cfg = decoding_config
    if index is None and cfg.exemplar_count > 0:
        raise ValueError("stage 3 needs an exemplar index when exemplar_count > 0")
    records = []
    for doc, pair, done in _reference_pairs(corpus, "stage 3"):
        hits = []
        if cfg.exemplar_count > 0:
            hits = top_k(
                pair.source,
                index,
                cfg.exemplar_count,
                exclude=exclude_at_or_after(doc.doc_id, pair.seg_index),
                alpha=cfg.similarity_alpha,
            )
        spec = build_prompt(doc.doc_id, done, pair.source, hits, cfg)
        records.append(
            InstructionRecord(
                instruction=render(spec, cfg.template),
                input="",
                output=pair.target,
            )
        )
    return records


def write_interlinear_file(docs: Iterable[InterlinearDocument], path: str | Path) -> None:
    """Documents serialized in order, separated by one blank line."""
    blocks = [format_interlinear(d) for d in docs]
    Path(path).write_text("\n".join(blocks), encoding="utf-8")

"""Command-line driver: prepare / translate / evaluate / validate.

Every run is governed by one YAML config plus --set overrides, so a
command line fully determines its outputs. Exit codes: 0 success,
1 validation or config error, 2 partial translation failure,
3 evaluation alignment error. The commands raise on a rejected config or
input (for example a monolingual corpus where a stage needs targets), and
main alone turns that into one "error:" line and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import backend as backend_mod
from . import corpus as corpus_mod
from . import decoder as decoder_mod
from . import metrics as metrics_mod
from . import prompts as prompts_mod
from . import stages as stages_mod
from .config import ConfigError, RunConfig, load_config
from .retrieval import ExemplarIndex, build_index, pool_from_pairs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_ALIGNMENT = 3


def _load_corpus(config: RunConfig, use_test: bool = False) -> corpus_mod.Corpus:
    paths = config.corpus
    records = paths.test_records if use_test and paths.test_records else paths.records
    if records:
        return corpus_mod.load_records(config.resolve(records))
    if paths.source_file:
        return corpus_mod.load_line_aligned(
            config.resolve(paths.source_file),
            config.resolve(paths.target_file) if paths.target_file else None,
            boundary_marker=paths.boundary_marker,
        )
    raise ConfigError("config names no corpus (corpus.records or corpus.source_file)")


def _build_backend(config: RunConfig) -> backend_mod.TranslationBackend:
    kind = config.loader.kind
    if kind == "identity":
        return backend_mod.IdentityBackend()
    if kind == "table":
        return backend_mod.TableBackend(config.loader.table)
    if kind == "scripted":
        return backend_mod.ScriptedBackend.from_file(config.resolve(config.loader.script_file))
    return backend_mod.HttpBackend(config.http)


def _out_dir(config: RunConfig) -> Path:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir


def _index_corpus(corpus: corpus_mod.Corpus, config: RunConfig) -> ExemplarIndex:
    pairs = [p for d in corpus.documents for p in d.pairs()]
    return build_index(pool_from_pairs(pairs), config.decoding.keyword_count)


def _build_exemplar_index(config: RunConfig) -> ExemplarIndex | None:
    """The external pool's index; None without a pool or at exemplar_count
    0, though a given pool is loaded and checked either way."""
    if config.loader.external_pool is None:
        return None
    pool_corpus = corpus_mod.load_records(config.resolve(config.loader.external_pool))
    if not pool_corpus.is_parallel:
        raise ConfigError("retrieval.external_pool must be a parallel record file")
    if config.decoding.exemplar_count == 0:
        return None
    return _index_corpus(pool_corpus, config)


def cmd_prepare(stage: str, config: RunConfig) -> int:
    # each stage makes --out only once its records are built, so a rejected
    # corpus or pool leaves no directory behind
    corpus = _load_corpus(config)
    if stage == "1":
        units = stages_mod.build_stage1_paragraphs(
            corpus,
            side=config.stages.stage1_side,
            budget=config.stages.stage1_budget,
            joiner=config.stages.stage1_joiner,
        )
        path = _out_dir(config) / "stage1_paragraphs.jsonl"
        corpus_mod.write_jsonl(path, map(vars, units))
        flagged = sum(1 for u in units if u.over_budget)
        print(f"stage 1: {len(units)} paragraph units ({flagged} over budget) -> {path}")
        return EXIT_OK

    if stage == "2":
        docs = stages_mod.build_stage2_documents(corpus, budget=config.stages.stage2_budget)
        path = _out_dir(config) / "stage2_interlinear.txt"
        stages_mod.write_interlinear_file(docs, path)
        pair_count = sum(len(d.pairs) for d in docs)
        print(f"stage 2: {len(docs)} interlinear documents ({pair_count} pairs) -> {path}")
        return EXIT_OK
    if stage == "3":
        index = _build_exemplar_index(config)
        if index is None and config.decoding.exemplar_count > 0:
            index = _index_corpus(corpus, config)
        records = stages_mod.build_stage3_instructions(corpus, config.decoding, index)
        path = _out_dir(config) / "stage3_instructions.jsonl"
        corpus_mod.write_jsonl(path, map(vars, records))
        print(f"stage 3: {len(records)} instruction records -> {path}")
        return EXIT_OK
    if stage == "baseline":
        template = stages_mod.DEFAULT_SENTENCE_INSTRUCTION
        if config.stages.sentence_instruction is not None:
            template = stages_mod.InstructionTemplate(config.stages.sentence_instruction)
        records = stages_mod.build_sentence_instructions(corpus, template)
        path = _out_dir(config) / "baseline_instructions.jsonl"
        corpus_mod.write_jsonl(path, map(vars, records))
        print(f"baseline: {len(records)} instruction records -> {path}")
        return EXIT_OK
    raise ConfigError(f"unknown stage {stage!r}")


def cmd_translate(config: RunConfig, dry_run: bool = False) -> int:
    corpus = _load_corpus(config, use_test=True)
    # a dry run never touches the configured backend; an internal echo
    # stands in so the incremental loop can still advance
    backend = backend_mod.IdentityBackend() if dry_run else _build_backend(config)
    index = _build_exemplar_index(config)

    try:
        results, manifest = decoder_mod.run_corpus(
            corpus,
            backend,
            index=index,
            config=config.decoding,
            parallelism=config.loader.parallelism,
        )
    finally:
        backend.close()
    if dry_run:
        prompts = sum(len(r.traces) for r in results)
        print(f"dry run: {prompts} prompts built for {len(results)} documents; no backend calls")
        return EXIT_OK

    out = _out_dir(config)
    hyp_path = out / "hypotheses.jsonl"
    corpus_mod.write_jsonl(hyp_path, (
        {
            "doc_id": result.doc_id,
            "seg_index": trace.seg_index,
            "source": source,
            "hypothesis": hyp,
            "failed": trace.failed,
        }
        for result in results
        for trace, source, hyp in zip(result.traces, result.sources, result.hypotheses)
    ))
    (out / "run_manifest.json").write_text(
        json.dumps(asdict(manifest), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"translated {manifest.translated_documents}/{manifest.documents} documents, "
        f"{manifest.sentences} sentences ({manifest.failed_sentences} fell back) -> {hyp_path}"
    )
    if manifest.aborted_documents:
        print(f"aborted documents: {', '.join(manifest.aborted_documents)}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def read_hypotheses(path: str | Path) -> dict[tuple[str, int], str]:
    """Map (doc_id, seg_index) to hypothesis text; a malformed or repeated
    record raises CorpusFormatError naming its line."""
    out: dict[tuple[str, int], str] = {}
    lines: dict[tuple[str, int], int] = {}
    for line_no, rec in corpus_mod.read_jsonl(path, ("doc_id", "hypothesis")):
        corpus_mod.claim_segment(lines, line_no, rec["doc_id"], rec.get("seg_index"))
        out[(rec["doc_id"], rec["seg_index"])] = rec["hypothesis"]
    return out


def cmd_evaluate(hyp_path: str, ref_path: str, config: RunConfig) -> int:
    hypotheses = read_hypotheses(hyp_path)
    ref_corpus = corpus_mod.load_records(ref_path)
    if not ref_corpus.is_parallel:
        raise ConfigError("reference corpus has no targets")
    references = {
        (p.doc_id, p.seg_index): p.target
        for d in ref_corpus.documents
        for p in d.pairs()
    }
    try:
        sentence = metrics_mod.s_bleu(hypotheses, references, config.metrics)
        document = metrics_mod.d_bleu(hypotheses, references, config.metrics)
    except metrics_mod.AlignmentError as exc:
        print(f"alignment error: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT

    out = _out_dir(config)
    print(f"{'segmentation':<14}{'BLEU':>8}{'BP':>8}{'hyp_len':>10}{'ref_len':>10}")
    for report, name in ((sentence, "eval_sentence"), (document, "eval_document")):
        print(
            f"{report.segmentation:<14}{report.score:>8.2f}"
            f"{report.brevity_penalty:>8.3f}{report.hyp_length:>10}{report.ref_length:>10}"
        )
        payload = {**asdict(report), "config": asdict(config.metrics)}
        (out / f"{name}.json").write_text(
            json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_validate(config: RunConfig) -> int:
    corpus = _load_corpus(config)
    print("corpus valid")
    print(
        f"{len(corpus.documents)} documents, {corpus.sentence_count} sentence pairs, "
        f"{'parallel' if corpus.is_parallel else 'monolingual'}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="run config YAML")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory override")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=argparse.SUPPRESS,
        metavar="KEY=VALUE",
        help="config override with dotted keys, e.g. decoding.history_size=5",
    )

    parser = argparse.ArgumentParser(
        prog="littrans",
        description="document-level literary MT toolkit",
        parents=[common],
    )
    parser.set_defaults(config=None, out=None, overrides=[])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[common], help="write stage data files")
    p.add_argument("stage", choices=["1", "2", "3", "baseline"])

    p = sub.add_parser("translate", parents=[common], help="run incremental decoding")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="build and count prompts without calling the backend",
    )

    p = sub.add_parser("evaluate", parents=[common], help="score hypotheses with s/d-BLEU")
    p.add_argument("hypotheses", help="decoder output JSONL")
    p.add_argument("references", help="reference corpus record file")

    sub.add_parser("validate", parents=[common], help="check the configured corpus")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.config:
        print("--config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = load_config(args.config, overrides=args.overrides, output_dir=args.out)
        if args.command == "prepare":
            return cmd_prepare(args.stage, config)
        if args.command == "translate":
            return cmd_translate(config, dry_run=args.dry_run)
        if args.command == "evaluate":
            return cmd_evaluate(args.hypotheses, args.references, config)
        if args.command == "validate":
            return cmd_validate(config)
        raise AssertionError(f"unhandled command {args.command}")
    except (
        ConfigError,
        corpus_mod.CorpusFormatError,
        prompts_mod.TemplateError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

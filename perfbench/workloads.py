"""The four benchmark workloads: inputs, config, commands and checks.

Each workload writes its seeded inputs and a littrans config into a work
directory and describes one round: the CLI argument lists a user would
type, and the number of sentences the round completes. A run repeats
whole rounds. Set-up is timed on the round's last command (on prepare,
stage 3), stopped at its first unit of work, so its time is import,
config load, corpus parse and any index build.

The probe names the call that starts one unit of work (one sentence) and
how to read the unit's key from its arguments; per-sentence latency is
measured between successive unit starts in the same document.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpora

HISTORY = 3
EXEMPLARS = 2
ALPHA = 0.5
KEYWORDS = 5
STAGE1_BUDGET = 200
STAGE2_BUDGET = 300
STUB_DELAY_MS = 4
REJECT_SHARE = 0.10  # first attempts answered 429 on translate-http
BACKOFF_S = 0.01
ORACLE_SAMPLE = 24

# Markers make rendered prompts parse back unambiguously; generated text
# holds no tab, no newline and no "<".
TEMPLATES = {
    "main": "{system}{context}{exemplars}<q>{source}\n<a>",
    "system_section": "{system}\n",
    "context_section": "{entries}",
    "context_entry": "<c>{src}\t{tgt}\n",
    "exemplar_section": "{entries}",
    "exemplar_entry": "<e>{src}\t{tgt}\n",
}


@dataclass
class Workload:
    name: str
    corpus: corpora.Corpus
    config: dict
    rounds: list[list[str]]  # CLI argument lists of one round; set-up is timed on the last
    probe: tuple[str, str, str]  # module, class ("" for a function), attribute
    key_arg: int
    key_attr: str | None
    units: dict[str, tuple[int, int]]  # unit key -> (document number, seg_index)
    sentences: int  # sentences completed per round
    stub: dict | None = None
    extra: dict = field(default_factory=dict)

    def plan(self) -> dict:
        return {
            "rounds": self.rounds,
            "probe": list(self.probe),
            "key_arg": self.key_arg,
            "key_attr": self.key_attr,
            "sentences": self.sentences,
            "capture": self.name == "translate-overlay",
        }


def _write_config(work: Path, config: dict) -> Path:
    tdir = work / "templates"
    tdir.mkdir(exist_ok=True)
    paths = {}
    for part, text in TEMPLATES.items():
        # the loader strips one trailing newline from a template file
        (tdir / f"{part}.txt").write_text(text + "\n", encoding="utf-8")
        paths[part] = f"templates/{part}.txt"
    config["decoding"]["templates"] = paths
    config["output_dir"] = str(work / "out")  # the loader takes it relative to the cwd
    path = work / "config.yaml"
    # JSON is valid YAML; the loader reads it as such
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def _base_config(exemplars: int, parallelism: int, backend: dict) -> dict:
    return {
        "corpus": {"records": "corpus.jsonl", "language_pair": "zh-en", "name": "bench"},
        "stages": {"stage1_budget": STAGE1_BUDGET, "stage2_budget": STAGE2_BUDGET},
        "retrieval": {"similarity_alpha": ALPHA, "keyword_count": KEYWORDS},
        "decoding": {
            "history_size": HISTORY,
            "exemplar_count": exemplars,
            "retry": 3,
            "fallback": "copy_source",
            "backoff_initial": BACKOFF_S,
            "backoff_factor": 2.0,
            "parallelism": parallelism,
        },
        "backend": backend,
        "metrics": {"max_order": 4, "smoothing": "exp-floor", "tokenization": "intl-13a"},
    }


def _source_units(corpus: corpora.Corpus) -> dict[str, tuple[int, int]]:
    return {p.source: (d, p.seg_index) for d, doc in enumerate(corpus.documents) for p in doc}


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)


def _translate_overlay(seed: int, work: Path) -> Workload:
    corpus = corpora.make_corpus(seed, "ov", [100, 200, 300], chapter_length=40)
    corpus.write_records(work / "corpus.jsonl")
    script = {p.source: p.target for p in corpus.pairs}
    (work / "script.json").write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
    config = _base_config(EXEMPLARS, 1, {"kind": "scripted", "script_file": "script.json"})
    cfg = str(_write_config(work, config))
    argv = ["translate", "--config", cfg]
    return Workload(
        name="translate-overlay",
        corpus=corpus,
        config=config,
        rounds=[argv],
        probe=("littrans.backend", "ScriptedBackend", "translate"),
        key_arg=1,
        key_attr="current_source",
        units=_source_units(corpus),
        sentences=len(corpus.pairs),
    )


def _translate_http(seed: int, work: Path) -> Workload:
    lengths = [18, 22, 26, 30, 34] * 4
    corpus = corpora.make_corpus(seed, "ht", lengths, chapter_length=12)
    corpus.write_records(work / "corpus.jsonl")
    sources = [p.source for p in corpus.pairs]
    rejected = random.Random(f"reject:{seed}").sample(sources, round(REJECT_SHARE * len(sources)))
    answers = {p.source: p.target for p in corpus.pairs}
    (work / "answers.json").write_text(json.dumps(answers, ensure_ascii=False), encoding="utf-8")
    (work / "reject.json").write_text(json.dumps(rejected, ensure_ascii=False), encoding="utf-8")
    backend = {
        "kind": "http",
        "base_url": "http://127.0.0.1:0",  # replaced once the stub has a port
        "model": "bench-model",
        "timeout": 30.0,
        "max_tokens": 256,
    }
    config = _base_config(0, 2, backend)
    _write_config(work, config)
    cfg = str(work / "config.yaml")
    argv = ["translate", "--config", cfg]
    return Workload(
        name="translate-http",
        corpus=corpus,
        config=config,
        rounds=[argv],
        probe=("littrans.backend", "HttpBackend", "translate"),
        key_arg=1,
        key_attr="current_source",
        units=_source_units(corpus),
        sentences=len(corpus.pairs),
        stub={
            "delay_ms": STUB_DELAY_MS,
            "answers": str(work / "answers.json"),
            "reject": str(work / "reject.json"),
            "log": str(work / "requests.jsonl"),
        },
        extra={"rejected": len(rejected)},
    )


def point_at_stub(workload: Workload, work: Path, port: int) -> None:
    workload.config["backend"]["base_url"] = f"http://127.0.0.1:{port}"
    _write_config(work, workload.config)


def _prepare(seed: int, work: Path) -> Workload:
    lengths = [20, 22, 24, 26, 28] * 2
    corpus = corpora.make_corpus(seed, "pr", lengths, chapter_length=8)
    corpus.write_records(work / "corpus.jsonl")
    config = _base_config(EXEMPLARS, 1, {"kind": "identity"})
    cfg = str(_write_config(work, config))
    rounds = [["prepare", stage, "--config", cfg] for stage in ("1", "2", "baseline", "3")]
    return Workload(
        name="prepare",
        corpus=corpus,
        config=config,
        rounds=rounds,
        probe=("littrans.stages", "", "top_k"),
        key_arg=0,
        key_attr=None,
        units=_source_units(corpus),
        sentences=len(corpus.pairs),
    )


def _evaluate(seed: int, work: Path) -> Workload:
    corpus, segments = corpora.make_eval_set(seed, [50] * 60)
    corpus.write_records(work / "references.jsonl")
    corpora.write_hypotheses(segments, work / "hypotheses.jsonl")
    config = _base_config(0, 1, {"kind": "identity"})
    config["corpus"]["records"] = "references.jsonl"
    cfg = str(_write_config(work, config))
    argv = [
        "evaluate", str(work / "hypotheses.jsonl"), str(work / "references.jsonl"),
        "--config", cfg,
    ]
    doc_index = {doc[0].doc_id: d for d, doc in enumerate(corpus.documents)}
    return Workload(
        name="evaluate",
        corpus=corpus,
        config=config,
        rounds=[argv],
        probe=("littrans.metrics", "", "tokenize"),
        key_arg=0,
        key_attr=None,
        units={s.hypothesis: (doc_index[s.doc_id], s.seg_index) for s in segments},
        sentences=len(segments),
        extra={"segments": segments},
    )


BUILDERS = {
    "translate-overlay": _translate_overlay,
    "translate-http": _translate_http,
    "prepare": _prepare,
    "evaluate": _evaluate,
}


def check(workload: Workload, work: Path, seed: int, worker: dict) -> list[str]:
    """Problems found in the outputs of the last round; empty when correct."""
    out = work / "out"
    sample_rng = random.Random(f"sample:{seed}")
    name = workload.name
    corpus = workload.corpus
    if name == "translate-overlay":
        problems = checks.hypotheses_file(out / "hypotheses.jsonl", corpus)
        records = [checks.record_from_dict(s) for s in worker["captured"]]
        problems += checks.prompts(
            records, corpus, HISTORY, EXEMPLARS, ALPHA, KEYWORDS, "prefix", sample_rng, ORACLE_SAMPLE
        )
        return problems
    if name == "translate-http":
        problems = checks.hypotheses_file(out / "hypotheses.jsonl", corpus)
        entries, log_problems = checks.stub_log(Path(workload.stub["log"]))
        problems += log_problems
        rounds, rejected = worker["rounds"], workload.extra["rejected"]
        statuses = [e["status"] for e in entries]
        if statuses.count(200) != rounds * workload.sentences or statuses.count(429) != rounds * rejected:
            problems.append(
                f"stub answered {statuses.count(200)} and refused {statuses.count(429)} requests;"
                f" expected {rounds * workload.sentences} and {rounds * rejected}"
            )
        if len(entries) != statuses.count(200) + statuses.count(429):
            problems.append("stub saw requests it could not answer")
        answered = [e for e in entries if e["status"] == 200][-workload.sentences:]
        records = [checks.record_from_body(e["body"]) for e in answered]
        problems += checks.prompts(
            records, corpus, HISTORY, 0, ALPHA, KEYWORDS, "prefix", sample_rng, 0
        )
        return problems
    if name == "prepare":
        problems = checks.stage1(out / "stage1_paragraphs.jsonl", corpus, STAGE1_BUDGET)
        problems += checks.stage2(out / "stage2_interlinear.txt", corpus)
        problems += checks.baseline(out / "baseline_instructions.jsonl", corpus)
        records, stage3_problems = checks.stage3_records(out / "stage3_instructions.jsonl", corpus)
        problems += stage3_problems
        problems += checks.prompts(
            records, corpus, HISTORY, EXEMPLARS, ALPHA, KEYWORDS, "corpus", sample_rng, ORACLE_SAMPLE
        )
        return problems
    if name == "evaluate":
        return checks.bleu_reports(out, workload.extra["segments"])
    raise ValueError(name)

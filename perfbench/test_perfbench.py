"""The benchmark's own tests: generators, oracles and checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpora  # noqa: E402
import stub  # noqa: E402
import worker  # noqa: E402
from littrans import cli  # noqa: E402
from littrans.backend import HttpBackend, HttpBackendConfig, TableBackend  # noqa: E402
from littrans.corpus import Chapter, Document, SentencePair  # noqa: E402
from littrans.decoder import DecodingConfig, translate_document  # noqa: E402
from littrans.metrics import BleuConfig, corpus_bleu, tokenize  # noqa: E402
from littrans.prompts import ContextEntry, PromptSpec  # noqa: E402
from littrans.retrieval import build_index, similarity, top_k  # noqa: E402
from littrans.tokenization import count_tokens, terms  # noqa: E402


def small_corpus(seed=3, lengths=(12, 20)):
    return corpora.make_corpus(seed, "t", list(lengths), chapter_length=5)


def as_document(doc):
    pairs = tuple(
        SentencePair(p.doc_id, p.chapter_id, p.seg_index, p.source, p.target) for p in doc
    )
    return Document(doc[0].doc_id, (Chapter("c", pairs),))


# --- generators ---

def test_generators_are_deterministic_per_seed():
    assert small_corpus(5).pairs == small_corpus(5).pairs
    assert small_corpus(5).pairs != small_corpus(6).pairs
    a, b = corpora.make_eval_set(5, [4, 6]), corpora.make_eval_set(5, [4, 6])
    assert a[0].pairs == b[0].pairs and a[1] == b[1]
    assert a[1] != corpora.make_eval_set(6, [4, 6])[1]


def test_corpus_shape_does_not_depend_on_seed():
    for seed in (1, 2, 3):
        c = corpora.make_corpus(seed, "t", [7, 9], chapter_length=4)
        assert [len(d) for d in c.documents] == [7, 9]
        assert [p.chapter_id for p in c.documents[1]] == ["ch00"] * 4 + ["ch01"] * 4 + ["ch02"]
        assert len({p.source for p in c.pairs}) == 16


# --- oracles agree with the program ---

def test_generator_token_counts_match_the_program():
    corpus, segments = corpora.make_eval_set(2, [30, 30])
    pairs = small_corpus(2, (60,)).pairs + corpus.pairs
    for p in pairs:
        assert count_tokens(p.source) == p.source_tokens
        assert tuple(tokenize(p.target)) == p.target_tokens
        assert checks.oracle_terms(p.source) == terms(p.source)
    for s in segments:
        assert tuple(tokenize(s.hypothesis)) == s.hyp_tokens
    doc = [s for s in segments if s.doc_id == segments[0].doc_id]
    joined = " ".join(s.hypothesis for s in doc)
    assert tuple(tokenize(joined)) == tuple(t for s in doc for t in s.hyp_tokens)


def test_tfidf_oracle_matches_program_scores():
    pool = [p.source for p in small_corpus(4, (40,)).pairs]
    index = build_index([(s, "t", "d", i) for i, s in enumerate(pool[:30])])
    oracle = checks.TfIdfOracle(pool[:30], keyword_count=5, alpha=0.5)
    for query in pool[30:]:
        for ex in index.exemplars:
            want = similarity(query, ex, index).combined
            assert abs(oracle.score(query, ex.source) - want) < 1e-9
        hits = top_k(query, index, 2)
        best = sorted((oracle.score(query, s) for s in pool[:30]), reverse=True)[:2]
        assert [oracle.score(query, h.source) for h in hits] == pytest.approx(best, abs=1e-9)


def test_bleu_oracle_matches_program():
    _, segments = corpora.make_eval_set(7, [20])
    report = corpus_bleu([s.hypothesis for s in segments], [s.reference for s in segments], BleuConfig())
    want = checks.oracle_bleu([list(s.hyp_tokens) for s in segments], [list(s.ref_tokens) for s in segments])
    assert abs(report.score - want["score"]) < 1e-9
    assert report.hyp_length == want["hyp_length"] and report.ref_length == want["ref_length"]


# --- checks pass on program output and fail on corrupted output ---

class Capture:
    def __init__(self, corpus):
        self.inner = TableBackend({p.source: p.target for p in corpus.pairs})
        self.capabilities = self.inner.capabilities
        self.specs = []

    def translate(self, prompt):
        self.specs.append(prompt)
        return self.inner.translate(prompt)


def decoded_prompts(corpus):
    backend = Capture(corpus)
    for doc in corpus.documents:
        translate_document(as_document(doc), backend, config=DecodingConfig(history_size=3, exemplar_count=2))
    return [
        checks.PromptRecord(
            s.current_source,
            tuple((e.source, e.translation) for e in s.context_block),
            tuple((e.source, e.translation) for e in s.exemplar_block),
        )
        for s in backend.specs
    ]


def prompt_problems(records, corpus):
    return checks.prompts(records, corpus, 3, 2, 0.5, 5, "prefix", random.Random(0), len(records))


def test_prompt_check_accepts_decoder_output():
    corpus = small_corpus()
    assert prompt_problems(decoded_prompts(corpus), corpus) == []


def test_prompt_check_catches_a_swapped_exemplar():
    corpus = small_corpus()
    records = decoded_prompts(corpus)
    n = next(i for i, r in enumerate(records) if len(r.exemplars) == 2 and i > 15)
    doc = corpus.documents[1]
    rec = records[n]
    i = [p.source for p in doc].index(rec.source)
    chosen = {s for s, _ in rec.exemplars}
    oracle = checks.TfIdfOracle([p.source for p in doc[:i]], 5, 0.5)
    worst = min((p for p in doc[:i] if p.source not in chosen), key=lambda p: oracle.score(rec.source, p.source))
    records[n] = checks.PromptRecord(rec.source, rec.context, ((worst.source, worst.target), rec.exemplars[1]))
    assert any("oracle" in p for p in prompt_problems(records, corpus))


def test_prompt_check_catches_a_future_exemplar_and_a_short_context():
    corpus = small_corpus()
    records = decoded_prompts(corpus)
    future = corpus.documents[0][8]
    records[3] = checks.PromptRecord(records[3].source, records[3].context, ((future.source, future.target),))
    records[5] = checks.PromptRecord(records[5].source, records[5].context[1:], records[5].exemplars)
    problems = prompt_problems(records, corpus)
    assert any("not before" in p for p in problems)
    assert any("context" in p for p in problems)


def test_rendered_prompts_parse_back(tmp_path):
    import workloads

    corpus = small_corpus()
    config = workloads._base_config(2, 1, {"kind": "identity"})
    cfg = workloads._write_config(tmp_path, config)
    corpus.write_records(tmp_path / "corpus.jsonl")
    assert cli.main(["prepare", "3", "--config", str(cfg)]) == 0
    records, problems = checks.stage3_records(tmp_path / "out" / "stage3_instructions.jsonl", corpus)
    assert problems == []
    assert prompt_problems(records, corpus) != []  # stage 3 draws from the whole corpus
    assert checks.prompts(records, corpus, 3, 2, 0.5, 5, "corpus", random.Random(0), len(records)) == []


def test_prepare_checks_catch_corrupted_files(tmp_path):
    import workloads

    corpus = small_corpus()
    config = workloads._base_config(2, 1, {"kind": "identity"})
    config["stages"]["stage1_budget"] = 40
    cfg = str(workloads._write_config(tmp_path, config))
    corpus.write_records(tmp_path / "corpus.jsonl")
    for stage in ("1", "2", "baseline"):
        assert cli.main(["prepare", stage, "--config", cfg]) == 0
    out = tmp_path / "out"
    assert checks.stage1(out / "stage1_paragraphs.jsonl", corpus, 40) == []
    assert checks.stage2(out / "stage2_interlinear.txt", corpus) == []
    assert checks.baseline(out / "baseline_instructions.jsonl", corpus) == []

    units = [json.loads(line) for line in (out / "stage1_paragraphs.jsonl").read_text().splitlines()]
    units[0]["token_count"] += 1
    (out / "stage1_paragraphs.jsonl").write_text("".join(json.dumps(u) + "\n" for u in units))
    assert checks.stage1(out / "stage1_paragraphs.jsonl", corpus, 40) != []
    text = (out / "stage2_interlinear.txt").read_text()
    (out / "stage2_interlinear.txt").write_text(text.replace("\n<src>", "\n<src> x", 1))
    assert checks.stage2(out / "stage2_interlinear.txt", corpus) != []
    lines = (out / "baseline_instructions.jsonl").read_text().splitlines()
    (out / "baseline_instructions.jsonl").write_text("\n".join(lines[1:]) + "\n")
    assert checks.baseline(out / "baseline_instructions.jsonl", corpus) != []


def test_hypothesis_check_catches_a_dropped_hypothesis(tmp_path):
    corpus = small_corpus()
    rows = [
        {"doc_id": p.doc_id, "seg_index": p.seg_index, "source": p.source, "hypothesis": p.target, "failed": False}
        for p in corpus.pairs
    ]
    path = tmp_path / "hypotheses.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    assert checks.hypotheses_file(path, corpus) == []
    del rows[7]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    assert checks.hypotheses_file(path, corpus) != []


def test_bleu_check_catches_one_changed_ngram(tmp_path):
    corpus, segments = corpora.make_eval_set(9, [15, 15])
    corpus.write_records(tmp_path / "refs.jsonl")
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))

    def evaluate(segs):
        corpora.write_hypotheses(segs, tmp_path / "hyps.jsonl")
        args = ["evaluate", str(tmp_path / "hyps.jsonl"), str(tmp_path / "refs.jsonl"), "--config", str(config)]
        assert cli.main(args) == 0
        return checks.bleu_reports(tmp_path / "out", segments)

    assert evaluate(segments) == []
    s = segments[4]
    words = s.hypothesis.split(" ")
    words[1] = "zzqx" if words[1] != "zzqx" else "qqzx"
    changed = corpora.EvalSegment(s.doc_id, s.seg_index, " ".join(words), s.hyp_tokens, s.reference, s.ref_tokens)
    assert evaluate(segments[:4] + [changed] + segments[5:]) != []


# --- latency, stub ---

def test_latencies_skip_retries_and_new_rounds():
    units = {"a": (0, 0), "b": (0, 1), "c": (0, 2), "x": (1, 0), "y": (1, 1)}
    times = [0.0, 0.5, 1.0, 1.2, 1.5, 3.0, 4.0, 4.5]
    codes = [units[k][0] * worker.UNIT_BASE + units[k][1] for k in "axbbycab"]
    assert worker.latencies(times, codes) == pytest.approx([1000.0, 1000.0, 2000.0, 500.0])


def test_stub_refuses_first_attempts_and_logs_bodies(tmp_path):
    log_path = tmp_path / "log.jsonl"
    with log_path.open("w", encoding="utf-8") as log:
        handler = stub.make_handler(0.0, {"甲。": "A.", "乙。": "B."}, {"乙。"}, log)
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            import workloads
            from littrans.prompts import PromptTemplate

            template = PromptTemplate(**workloads.TEMPLATES)
            backend = HttpBackend(HttpBackendConfig(
                base_url=f"http://127.0.0.1:{server.server_address[1]}", model="m", template=template))

            def spec(source):
                return PromptSpec("sys", (ContextEntry(0, "丙。", "C."),), (), source)

            assert backend.translate(spec("甲。")) == "A."
            with pytest.raises(Exception) as refused:
                backend.translate(spec("乙。"))
            assert getattr(refused.value, "kind", None) == "rate_limit"
            assert backend.translate(spec("乙。")) == "B."
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    entries, problems = checks.stub_log(log_path)
    assert problems == [] and [e["status"] for e in entries] == [200, 429, 200]
    assert checks.record_from_body(entries[0]["body"]) == checks.PromptRecord("甲。", (("丙。", "C."),), ())


def test_stub_log_check_catches_an_extra_body_field(tmp_path):
    body = {"model": "m", "messages": [], "temperature": 0.0, "max_tokens": 5, "stream": False}
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"status": 200, "body": json.dumps(body)}) + "\n")
    assert checks.stub_log(path)[1] != []


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

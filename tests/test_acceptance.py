"""Acceptance suite: one test per release criterion.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (visible with
pytest -s or on failure) and enforces its runtime budget.
"""

import json
import random
import string
import time
from pathlib import Path

import pytest

from littrans.cli import main as cli_main
from littrans.decoder import DecodingConfig, translate_document
from littrans.metrics import BleuConfig, corpus_bleu, d_bleu, s_bleu
from littrans.prompts import PromptTemplate
from littrans.retrieval import build_index, similarity, top_k
from littrans.stages import InterlinearDocument, build_stage1_paragraphs, format_interlinear, parse_interlinear
from littrans.backend import BackendError, HttpBackend, HttpBackendConfig, IdentityBackend
from test_backend import GOLDEN_SPEC, CaptureStub, completion
from util import (
    CapturingBackend,
    brute_force_top_k,
    make_corpus,
    make_document,
    naive_bleu,
    random_words,
)


def run_criterion(name, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{name}: {elapsed:.2f}s over budget"


def test_bleu_oracle_suite(bleu_fixture):
    def body():
        cases = bleu_fixture["handcrafted_cases"]
        assert len(cases) >= 10
        for case in cases:
            report = corpus_bleu(
                case["hypotheses"], case["references"], BleuConfig(smoothing=case["smoothing"])
            )
            if case["score"] == 0.0:
                assert report.score == 0.0, case["name"]
            else:
                rel = abs(report.score - case["score"]) / case["score"]
                assert rel < 1e-6, (case["name"], report.score, case["score"])
        spec_case = corpus_bleu(["a b c d e"], ["a b c d f"], BleuConfig(smoothing="none"))
        assert abs(spec_case.score - 66.874030) < 1e-4
        pinned = bleu_fixture["pinned_20_pair"]
        report = corpus_bleu(pinned["hypotheses"], pinned["references"])
        assert abs(report.score - pinned["score"]) < 0.01

    run_criterion("bleu-oracle-suite", 1.0, body)


def test_d_bleu_s_bleu_equivalence():
    def body():
        rng = random.Random(2024)
        vocab = list(string.ascii_lowercase[:9])
        for case in range(120):
            n_docs = rng.randint(1, 8)
            hyp = {}
            ref = {}
            for d in range(n_docs):
                key = (f"doc{d}", 0)  # every document has exactly one sentence
                hyp[key] = random_words(rng, vocab, 1, 10)
                ref[key] = random_words(rng, vocab, 1, 10)
            assert d_bleu(hyp, ref).score == s_bleu(hyp, ref).score, case

    run_criterion("d-bleu-s-bleu-equivalence", 5.0, body)


def _sentinel_doc(doc_id, length, run_tag):
    sentences = []
    for seg in range(length):
        source = f"the story goes on SRC{seg}X{run_tag} word"
        target = f"reference text TGT{seg}X{run_tag}"
        sentences.append((source, target))
    return make_document(doc_id, sentences)


def test_incremental_decoding_window_invariants():
    def body():
        rng = random.Random(7)
        for n in (0, 1, 3, 8):
            for trial in range(10):
                length = rng.randint(1, 50)
                k = rng.choice((0, 2))
                doc = _sentinel_doc("d", length, f"{n}t{trial}")
                config = DecodingConfig(
                    history_size=n, exemplar_count=k, backoff_initial=0
                )
                capture = CapturingBackend(IdentityBackend(), config.template)
                translate_document(doc, capture, config=config, sleep=lambda _d: None)
                assert len(capture.specs) == length
                for seg, (spec, rendered) in enumerate(zip(capture.specs, capture.rendered)):
                    assert len(spec.context_block) == min(n, seg)
                    for future in range(seg + 1, length):
                        assert f"SRC{future}X" not in rendered
                    for any_seg in range(seg, length):
                        assert f"TGT{any_seg}X" not in rendered
                    assert f"SRC{seg}X" in rendered
                    for entry in spec.exemplar_block:
                        assert entry.seg_index < seg

    run_criterion("incremental-decoding-window-invariants", 10.0, body)


def test_reduction_to_sentence_level():
    def body():
        rng = random.Random(99)
        vocab = ["river", "stone", "night", "lantern", "walked", "said"]
        docs = [
            make_document(f"doc{d}", [random_words(rng, vocab, 2, 8) for _ in range(10)])
            for d in range(3)
        ]
        corpus = make_corpus(docs)
        config = DecodingConfig(history_size=0, exemplar_count=0, backoff_initial=0)
        template = config.template
        for doc in corpus.documents:
            capture = CapturingBackend(IdentityBackend(), template)
            translate_document(doc, capture, config=config, sleep=lambda _d: None)
            for pair, rendered in zip(doc.pairs(), capture.rendered):
                plain = template.main.format(
                    system=template.system_section.format(system=template.system),
                    context="",
                    exemplars="",
                    source=pair.source,
                )
                assert rendered == plain  # bitwise

    run_criterion("reduction-to-sentence-level", 5.0, body)


def test_retrieval_brute_force_equivalence():
    def body():
        rng = random.Random(4242)
        vocab = list(string.ascii_lowercase[:12])
        queries_done = 0
        while queries_done < 1000:
            pool_size = rng.randint(1, 100)
            pool = [
                (random_words(rng, vocab, 1, 8), "t", f"d{rng.randint(0, 4)}", i)
                for i in range(pool_size)
            ]
            index = build_index(pool)
            for _ in range(25):
                query = random_words(rng, vocab, 1, 8)
                k = rng.randint(0, 5)
                exclude = None
                if rng.random() < 0.4:
                    parity = rng.randint(0, 1)
                    exclude = lambda d, s, p=parity: s % 2 == p
                mine = [e.exemplar_id for e in top_k(query, index, k, exclude=exclude)]
                oracle = [
                    e.exemplar_id for e in brute_force_top_k(query, index, k, exclude=exclude)
                ]
                assert mine == oracle
                queries_done += 1

        # self-similarity = 1 and disjoint-vocabulary similarity = 0
        pool = [(random_words(rng, vocab, 1, 8), "t", "d", i) for i in range(60)]
        index = build_index(pool)
        for ex in index.exemplars:
            score = similarity(ex.source, ex, index)
            assert abs(score.combined - 1.0) < 1e-9
        disjoint_vocab = [f"zz{i}" for i in range(12)]  # shares no term with a-l
        for _ in range(60):
            query = " ".join(rng.choice(disjoint_vocab) for _ in range(rng.randint(1, 8)))
            for ex in index.exemplars:
                assert similarity(query, ex, index).combined == 0.0

    run_criterion("retrieval-brute-force-equivalence", 10.0, body)


def test_interlinear_round_trip_1000():
    def body():
        rng = random.Random(5)
        alphabet = string.ascii_letters + " 中文字句.,!?;:" + string.digits
        def line():
            while True:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
                if text.strip():
                    return text
        for i in range(1000):
            if i == 0:
                n_pairs = 0  # empty document
            elif i == 1:
                n_pairs = 1  # single pair
            else:
                n_pairs = rng.randint(0, 8)
            doc = InterlinearDocument(
                doc_id=f"doc{i}",
                pairs=tuple((line(), line()) for _ in range(n_pairs)),
            )
            assert parse_interlinear(format_interlinear(doc), doc_id=doc.doc_id) == doc

    run_criterion("interlinear-round-trip", 10.0, body)


def test_stage1_coverage():
    def body():
        rng = random.Random(17)
        counter = lambda text: len(text.split())
        for _ in range(300):
            n_sent = rng.randint(1, 25)
            counts = [rng.randint(1, 9) for _ in range(n_sent)]
            breaks = {rng.randint(1, n_sent - 1) for _ in range(rng.randint(0, 3))} if n_sent > 1 else set()
            budget = rng.randint(1, 30)
            doc = make_document(
                "d",
                [" ".join([f"s{i}w{j}" for j in range(c)]) for i, c in enumerate(counts)],
                chapter_breaks=breaks,
            )
            corpus = make_corpus([doc])
            units = build_stage1_paragraphs(corpus, budget=budget, tokenizer=counter)
            for chapter in doc.chapters:
                chapter_units = [u for u in units if u.chapter_id == chapter.chapter_id]
                rebuilt = " ".join(u.text for u in chapter_units)
                original = " ".join(p.source for p in chapter.pairs)
                assert rebuilt == original  # exact partition, order kept
            for u in units:
                if u.over_budget:
                    assert u.token_count > budget
                    assert " ".join(u.text.split()) in [p.source for p in doc.pairs()]
                else:
                    assert u.token_count <= budget

    run_criterion("stage1-coverage", 10.0, body)


def test_end_to_end_determinism(toy_dir, tmp_path, bleu_fixture, capsys):
    def body():
        config = str(toy_dir / "config.yaml")
        runs = {
            "r1": [],
            "r2": [],
            "r4": ["--set", "decoding.parallelism=4"],
        }
        for name, extra in runs.items():
            out = tmp_path / name
            for stage in ("1", "2", "3", "baseline"):
                assert cli_main(["prepare", stage, "--config", config, "--out", str(out)] + extra) == 0
            assert cli_main(["translate", "--config", config, "--out", str(out)] + extra) == 0
            assert cli_main([
                "evaluate", str(out / "hypotheses.jsonl"), str(toy_dir / "corpus.jsonl"),
                "--config", config, "--out", str(out),
            ] + extra) == 0

        def snapshot(out_dir):
            files = {}
            for path in sorted(Path(out_dir).iterdir()):
                if path.name == "run_manifest.json":
                    manifest = json.loads(path.read_text(encoding="utf-8"))
                    manifest.pop("started")
                    manifest.pop("finished")
                    files[path.name] = json.dumps(manifest, sort_keys=True)
                else:
                    files[path.name] = path.read_bytes()
            return files

        base = snapshot(tmp_path / "r1")
        assert snapshot(tmp_path / "r2") == base
        assert snapshot(tmp_path / "r4") == base
        assert len(base) == 8  # 4 prepare outputs, hyps, manifest, 2 eval reports

        pinned = bleu_fixture["toy_eval"]
        sentence = json.loads((tmp_path / "r1" / "eval_sentence.json").read_text(encoding="utf-8"))
        document = json.loads((tmp_path / "r1" / "eval_document.json").read_text(encoding="utf-8"))
        assert abs(sentence["score"] - pinned["s_bleu"]) < 1e-9
        assert abs(document["score"] - pinned["d_bleu"]) < 1e-9

    with capsys.disabled():
        run_criterion("end-to-end-determinism", 30.0, body)


def test_http_backend_conformance(data_dir):
    def body():
        golden_dir = data_dir / "golden"
        stub = CaptureStub()
        try:
            def backend(**overrides):
                return HttpBackend(
                    HttpBackendConfig(base_url=stub.base_url, model="test-model", **overrides)
                )

            stub.enqueue(200, completion("ok"))
            backend().translate(GOLDEN_SPEC)
            sent = json.loads(stub.captured[-1]["body"].decode("utf-8"))
            golden = json.loads(
                (golden_dir / "http_request_system_role.json").read_text(encoding="utf-8")
            )
            assert sent == golden

            stub.enqueue(200, completion("ok"))
            backend(supports_system_role=False).translate(GOLDEN_SPEC)
            sent = json.loads(stub.captured[-1]["body"].decode("utf-8"))
            golden = json.loads(
                (golden_dir / "http_request_no_system_role.json").read_text(encoding="utf-8")
            )
            assert sent == golden

            for status, payload, expected_kind in (
                (429, {"error": {"message": "slow down"}}, "rate_limit"),
                (500, b"boom", "network"),
                (200, b"not json at all", "protocol"),
            ):
                stub.enqueue(status, payload)
                with pytest.raises(BackendError) as err:
                    backend().translate(GOLDEN_SPEC)
                assert err.value.kind == expected_kind
        finally:
            stub.close()

    run_criterion("http-backend-conformance", 10.0, body)

import http.client
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
import yaml

from littrans import cli
from littrans import config as config_mod
from littrans import corpus as corpus_mod
from littrans import metrics as metrics_mod
from littrans.cli import cmd_translate, main
from littrans.config import ConfigError, RunConfig, load_config
from littrans.prompts import DEFAULT_SYSTEM_SECTION


@pytest.fixture()
def toy_config_path(toy_dir):
    return str(toy_dir / "config.yaml")


def run(args):
    return main(args)


def read_lines(path):
    return Path(path).read_text(encoding="utf-8")


# --- config loading ---

def test_load_config_defaults(toy_config_path):
    config = load_config(toy_config_path)
    assert config.decoding.history_size == 2
    assert config.stages.stage1_budget == 20
    assert config.corpus.language_pair == "zh-en"


def test_config_set_override(toy_config_path):
    config = load_config(toy_config_path, overrides=["decoding.history_size=7", "metrics.lowercase=true"])
    assert config.decoding.history_size == 7
    assert config.metrics.lowercase is True


def test_config_unknown_key_rejected(toy_config_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(toy_config_path, overrides=["decoding.window=3"])


def test_config_missing_path_rejected(tmp_path):
    config_file = tmp_path / "c.yaml"
    config_file.write_text("corpus:\n  records: nowhere.jsonl\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(config_file)


def test_config_bad_range_rejected(toy_config_path):
    with pytest.raises(ConfigError, match="alpha"):
        load_config(toy_config_path, overrides=["retrieval.similarity_alpha=2.0"])


def test_config_template_file_loaded(toy_config_path):
    template = load_config(toy_config_path).decoding.template
    assert template.main.endswith("English translation:")


def test_system_template_file_sets_every_prompts_system_block(toy_config_path, tmp_path):
    # one trailing newline is stripped, as from every template file
    system = tmp_path / "system.txt"
    system.write_text("Keep every name.\n\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["prepare", "3", "--config", toy_config_path, "--out", str(out),
                "--set", f"decoding.templates.system={system}"]) == 0
    records = [json.loads(l) for l in read_lines(out / "stage3_instructions.jsonl").splitlines()]
    assert len(records) == 10
    block = DEFAULT_SYSTEM_SECTION.format(system="Keep every name.\n")
    after = ("Previous sentences", "Similarly phrased", "Source sentence:")
    assert all(
        r["instruction"].startswith(block) and r["instruction"][len(block):].startswith(after)
        for r in records
    )


def test_override_value_may_hold_an_equals_sign(toy_config_path, tmp_path):
    # only the first "=" parts the key from the value
    assert run(["prepare", "baseline", "--config", toy_config_path, "--out", str(tmp_path),
                "--set", "stages.sentence_instruction=Q={source} A="]) == 0
    records = [json.loads(l) for l in read_lines(tmp_path / "baseline_instructions.jsonl").splitlines()]
    assert len(records) == 10
    assert all(r["instruction"] == f"Q={r['input']} A=" for r in records)


# --- prepare ---

def test_prepare_stage1_matches_golden(toy_config_path, tmp_path, data_dir, capsys):
    assert run(["prepare", "1", "--config", toy_config_path, "--out", str(tmp_path)]) == 0
    got = read_lines(tmp_path / "stage1_paragraphs.jsonl")
    golden = read_lines(data_dir / "golden" / "stage1_paragraphs.jsonl")
    assert got == golden
    assert "6 paragraph units" in capsys.readouterr().out


def test_budget_of_one_loads_and_flags_every_unit(toy_config_path, tmp_path, capsys):
    # 1 is the least budget either stage accepts; every toy sentence is over it
    assert run(["prepare", "1", "--config", toy_config_path, "--out", str(tmp_path),
                "--set", "stages.stage1_budget=1"]) == 0
    assert "stage 1: 10 paragraph units (10 over budget)" in capsys.readouterr().out
    assert load_config(toy_config_path, overrides=["stages.stage2_budget=1"]).stages.stage2_budget == 1


def test_prepare_stage2_round_trips(toy_config_path, tmp_path):
    assert run(["prepare", "2", "--config", toy_config_path, "--out", str(tmp_path)]) == 0
    from littrans.stages import parse_interlinear

    text = (tmp_path / "stage2_interlinear.txt").read_text(encoding="utf-8")
    docs = [parse_interlinear(block) for block in text.split("\n\n")]
    assert sum(len(d.pairs) for d in docs) == 10
    assert len(docs) == 6  # hand-run packing at budget 35


def test_prepare_stage3_and_baseline(toy_config_path, tmp_path):
    assert run(["prepare", "3", "--config", toy_config_path, "--out", str(tmp_path)]) == 0
    records = [json.loads(l) for l in read_lines(tmp_path / "stage3_instructions.jsonl").splitlines()]
    assert len(records) == 10
    assert all(r["output"] for r in records)
    assert run(["prepare", "baseline", "--config", toy_config_path, "--out", str(tmp_path)]) == 0
    baseline = [json.loads(l) for l in read_lines(tmp_path / "baseline_instructions.jsonl").splitlines()]
    assert len(baseline) == 10
    assert all(r["input"] == r["instruction"].split("\n")[1] for r in baseline)


def test_prepare_stage3_requires_parallel(tmp_path):
    corpus = tmp_path / "mono.jsonl"
    corpus.write_text('{"doc_id": "a", "source": "只有源文"}\n', encoding="utf-8")
    config = tmp_path / "c.yaml"
    config.write_text(f"corpus:\n  records: {corpus.name}\n", encoding="utf-8")
    code = run(["prepare", "3", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("stage, overrides, message", [
    ("1", ["stages.stage1_side=target"], "stage 1 on the target side requires a fully parallel corpus"),
    ("2", [], "stage 2 requires a fully parallel corpus"),
    ("3", [], "pair a#0 has no target"),
    ("3", ["decoding.exemplar_count=0"], "stage 3 requires a fully parallel corpus"),
    ("baseline", [], "sentence instruction data requires a fully parallel corpus"),
    ("3", ["retrieval.external_pool=mono.jsonl"], "retrieval.external_pool must be a parallel record file"),
], ids=["1-target", "2", "3-self-pool", "3-no-exemplars", "baseline", "3-external-pool"])
def test_prepare_on_a_monolingual_corpus_is_one_error_line(
    tmp_path, stage, overrides, message, capsys
):
    # the stage builders own the rule; main alone turns it into exit 1
    corpus = tmp_path / "mono.jsonl"
    corpus.write_text('{"doc_id": "a", "source": "只有源文"}\n', encoding="utf-8")
    config = tmp_path / "c.yaml"
    config.write_text(f"corpus:\n  records: {corpus.name}\n", encoding="utf-8")
    out = tmp_path / "out"
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert run(["prepare", stage, "--config", str(config), "--out", str(out), *sets]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_prepare_stage2_empty_corpus(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("", encoding="utf-8")
    config = tmp_path / "c.yaml"
    config.write_text(f"corpus:\n  records: {corpus.name}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["prepare", "2", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "stage2_interlinear.txt").read_text(encoding="utf-8") == ""


# --- translate ---

def test_table_backend_translates_from_the_inline_table(tmp_path):
    # a source missing from the table is a protocol error: it falls back
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        '{"doc_id": "a", "source": "山风"}\n{"doc_id": "a", "source": "高原"}\n', encoding="utf-8"
    )
    config = tmp_path / "c.yaml"
    config.write_text(
        "corpus:\n  records: c.jsonl\nbackend:\n  kind: table\n  table:\n    山风: Wind.\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run(["translate", "--config", str(config), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in read_lines(out / "hypotheses.jsonl").splitlines()]
    assert [(r["hypothesis"], r["failed"]) for r in rows] == [("Wind.", False), ("高原", True)]


def test_translate_matches_golden(toy_config_path, tmp_path, data_dir):
    assert run(["translate", "--config", toy_config_path, "--out", str(tmp_path)]) == 0
    got = read_lines(tmp_path / "hypotheses.jsonl")
    golden = read_lines(data_dir / "golden" / "hypotheses.jsonl")
    assert got == golden
    manifest = json.loads(read_lines(tmp_path / "run_manifest.json"))
    assert manifest["documents"] == 3
    assert manifest["sentences"] == 10
    assert manifest["failed_sentences"] == 0
    assert manifest["aborted_documents"] == []
    assert manifest["config"]["history_size"] == 2


def test_translate_idempotent_and_parallelism_invariant(toy_config_path, tmp_path):
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r4"
    assert run(["translate", "--config", toy_config_path, "--out", str(out1)]) == 0
    assert run(["translate", "--config", toy_config_path, "--out", str(out2)]) == 0
    assert run(["translate", "--config", toy_config_path, "--out", str(out3),
                "--set", "decoding.parallelism=4"]) == 0
    h1 = read_lines(out1 / "hypotheses.jsonl")
    assert h1 == read_lines(out2 / "hypotheses.jsonl")
    assert h1 == read_lines(out3 / "hypotheses.jsonl")
    m1 = json.loads(read_lines(out1 / "run_manifest.json"))
    m3 = json.loads(read_lines(out3 / "run_manifest.json"))
    for m in (m1, m3):
        m.pop("started")
        m.pop("finished")
    assert m1 == m3


# --- retrieval.external_pool: one built index, shared by every document ---

# six pairs that share characters with the toy corpus but none of its texts
POOL = [
    ("pool-a", 0, "山风吹过草原。", "POOL: A mountain wind crossed the grassland."),
    ("pool-a", 1, "少年放下了手中的剑。", "POOL: The boy laid down the sword in his hand."),
    ("pool-a", 2, "夜色笼罩了河岸。", "POOL: Night covered the river bank."),
    ("pool-b", 0, "师父站在高塔上。", "POOL: The master stood on the high tower."),
    ("pool-b", 1, "远处的灯光闪着。", "POOL: Lights flickered in the distance."),
    ("pool-b", 2, "前路在月光下依然漫长。", "POOL: Under the moon the road was still long."),
]


@pytest.fixture()
def pool_path(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text("".join(
        json.dumps({"doc_id": d, "seg_index": s, "source": src, "target": tgt}, ensure_ascii=False)
        + "\n"
        for d, s, src, tgt in POOL
    ), encoding="utf-8")
    return path


def test_external_pool_is_shared_at_its_fixed_size(toy_config_path, tmp_path, pool_path, monkeypatch):
    # every document's queries read the one built pool, never a growing
    # prefix, and threads sharing it see what a single thread sees
    from littrans import decoder

    seen = []
    query = decoder.top_k

    def recording(source, index, *args, **kwargs):
        hits = query(source, index, *args, **kwargs)
        seen.append((source, index.total_docs, [e.exemplar_id for e in hits]))
        return hits

    monkeypatch.setattr(decoder, "top_k", recording)
    calls = {}
    for parallelism in (1, 4):
        seen.clear()
        assert run(["translate", "--config", toy_config_path, "--out", str(tmp_path / f"r{parallelism}"),
                    "--set", f"retrieval.external_pool={pool_path}",
                    "--set", f"decoding.parallelism={parallelism}"]) == 0
        calls[parallelism] = sorted(seen)
    assert len(calls[1]) == 10
    assert {size for _source, size, _ids in calls[1] + calls[4]} == {len(POOL)}
    assert all(ids and all(i.startswith("pool-") for i in ids) for _s, _n, ids in calls[1])
    assert calls[1] == calls[4]
    assert read_lines(tmp_path / "r1" / "hypotheses.jsonl") == read_lines(tmp_path / "r4" / "hypotheses.jsonl")


def test_external_pool_fills_stage3_exemplar_blocks(toy_config_path, tmp_path, pool_path):
    assert run(["prepare", "3", "--config", toy_config_path, "--out", str(tmp_path),
                "--set", f"retrieval.external_pool={pool_path}"]) == 0
    records = [json.loads(l) for l in read_lines(tmp_path / "stage3_instructions.jsonl").splitlines()]
    assert len(records) == 10
    pool_lines = {line for _d, _s, src, tgt in POOL for line in (src, f"=> {tgt}")}
    for record in records:
        block = record["instruction"].split("Similarly phrased translations, for style:\n")[1]
        block = block.split("\n\nSource sentence:")[0]
        assert set(block.splitlines()) <= pool_lines, block


@pytest.mark.parametrize("command", [["translate"], ["prepare", "3"]])
@pytest.mark.parametrize("exemplar_count", [0, 1])
def test_monolingual_external_pool_is_config_error(
    toy_config_path, tmp_path, command, exemplar_count, capsys
):
    pool = tmp_path / "mono.jsonl"
    pool.write_text('{"doc_id": "a", "source": "只有源文"}\n', encoding="utf-8")
    code = run([*command, "--config", toy_config_path, "--out", str(tmp_path / "out"),
                "--set", f"retrieval.external_pool={pool}",
                "--set", f"decoding.exemplar_count={exemplar_count}"])
    assert code == 1
    assert "retrieval.external_pool must be a parallel record file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["prepare", "3"],
    ["prepare", "3", "--set", "retrieval.external_pool=corpus.jsonl"],
    ["translate", "--set", "retrieval.external_pool=corpus.jsonl"],
])
def test_no_exemplar_index_is_built_without_exemplars(toy_config_path, tmp_path, monkeypatch, args):
    def no_index(*_args, **_kwargs):
        raise AssertionError("an exemplar index was built at exemplar_count 0")

    monkeypatch.setattr(cli, "build_index", no_index)
    assert run([*args, "--config", toy_config_path, "--out", str(tmp_path),
                "--set", "decoding.exemplar_count=0"]) == 0


def test_translate_dry_run_counts_without_calls(toy_config_path, tmp_path, capsys, monkeypatch):
    def no_backend(config):
        raise AssertionError("a dry run built the configured backend")

    monkeypatch.setattr(cli, "_build_backend", no_backend)
    config = load_config(toy_config_path, output_dir=str(tmp_path))
    code = cmd_translate(config, dry_run=True)
    assert code == 0
    out = capsys.readouterr().out
    assert "10 prompts" in out
    assert not (tmp_path / "hypotheses.jsonl").exists()


def test_translate_dry_run_via_argv(toy_config_path, tmp_path, capsys):
    assert run(["translate", "--dry-run", "--config", toy_config_path,
                "--out", str(tmp_path)]) == 0
    assert "no backend calls" in capsys.readouterr().out


def test_translate_missing_api_key_is_config_error(toy_config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LITTRANS_TEST_KEY", raising=False)
    code = run([
        "translate", "--config", toy_config_path, "--out", str(tmp_path),
        "--set", "backend.kind=http",
        "--set", "backend.base_url=http://127.0.0.1:1",
        "--set", "backend.api_key_env=LITTRANS_TEST_KEY",
    ])
    assert code == 1
    assert "LITTRANS_TEST_KEY" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "backend.rate_limit_rps=0",
    "backend.rate_limit_rps=-1",
    "backend.timeout=0",
    "backend.timeout=-1",
])
def test_nonpositive_http_rate_or_timeout_is_config_error(
    toy_config_path, tmp_path, override, monkeypatch, capsys
):
    sent = []
    monkeypatch.setattr(http.client.HTTPConnection, "request", lambda self, *a, **kw: sent.append(a))
    out = tmp_path / "out"
    code = run([
        "translate", "--config", toy_config_path, "--out", str(out),
        "--set", "backend.kind=http",
        "--set", "backend.base_url=http://127.0.0.1:1",
        "--set", override,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{override.split('=')[0]} must be > 0" in err and "Traceback" not in err
    assert sent == [] and not out.exists()


@pytest.mark.parametrize("base_url", [
    None, "localhost:8000", "ftp://h", "http://", "http://h:abc", "http://[::1",
])
def test_http_base_url_without_host_is_config_error(
    toy_config_path, tmp_path, base_url, monkeypatch, capsys
):
    # accepted, such a URL would fail every sentence as a retried network
    # error and exit 0 with every source copied
    sent = []
    monkeypatch.setattr(http.client.HTTPConnection, "request", lambda self, *a, **kw: sent.append(a))
    out = tmp_path / "out"
    argv = ["translate", "--config", toy_config_path, "--out", str(out),
            "--set", "backend.kind=http"]
    if base_url is not None:
        argv += ["--set", f"backend.base_url={base_url}"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "backend.base_url" in err and "Traceback" not in err
    assert sent == [] and not (out / "hypotheses.jsonl").exists()


def test_http_path_without_leading_slash_is_config_error(
    toy_config_path, tmp_path, monkeypatch, capsys
):
    # accepted, the path would be glued onto the host ("...:1v1/chat/...")
    # and every sentence would fall back with exit 0
    sent = []
    monkeypatch.setattr(http.client.HTTPConnection, "request", lambda self, *a, **kw: sent.append(a))
    out = tmp_path / "out"
    code = run([
        "translate", "--config", toy_config_path, "--out", str(out),
        "--set", "backend.kind=http",
        "--set", "backend.base_url=http://127.0.0.1:1",
        "--set", "backend.path=v1/chat/completions",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "backend.path" in err and "Traceback" not in err
    assert sent == [] and not (out / "hypotheses.jsonl").exists()


def test_importing_the_cli_loads_no_http_library():
    # every command imports the CLI; an HTTP library costs each of them
    # start-up time and resident memory
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, littrans.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('requests', 'urllib3')))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# modules only an HTTP backend needs (ssl maps OpenSSL)
HTTP_MODULES = ["http.client", "ssl", "urllib.request", "email.parser"]
# modules only translate needs: the thread pool
TRANSLATE_MODULES = ["concurrent.futures"]
# OpenSSL's hashes: only the HTTP client (urllib.request) and prompt_hash
# load them, and translate on any other backend hashes no prompt
HASH_MODULES = ["hashlib", "_hashlib"]

_LOADED_AFTER_COMMANDS = """
import json, sys
from littrans.cli import main

config, out, hypotheses, references, modules = sys.argv[1:]
modules = json.loads(modules)
codes = [main(["validate", "--config", config])]
codes += [main(["prepare", s, "--config", config, "--out", out]) for s in ("1", "2", "3", "baseline")]
codes.append(main(["evaluate", hypotheses, references, "--config", config, "--out", out]))
before = [m for m in modules if m in sys.modules]
codes.append(main(["translate", "--config", config, "--out", out + "/translate"]))
after = [m for m in modules if m in sys.modules]
print(json.dumps({"codes": codes, "before": before, "after": after}))
"""


def test_commands_load_only_what_they_run(toy_config_path, toy_dir, translated, tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_COMMANDS, toy_config_path, str(tmp_path / "out"),
         str(translated / "hypotheses.jsonl"), str(toy_dir / "corpus.jsonl"),
         json.dumps(HTTP_MODULES + TRANSLATE_MODULES + HASH_MODULES)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    # validate, prepare 1|2|3|baseline and evaluate
    assert result["before"] == []
    # translate on the scripted backend
    assert not set(result["after"]) & set(HTTP_MODULES + HASH_MODULES)


def test_translate_abort_exit_code(toy_dir, tmp_path):
    # make every attempt for one source fail and abort the document
    script = {"只有一句。": [{"error": "network"}]}
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"doc_id": "solo", "seg_index": 0, "source": "只有一句。", "target": "One."}\n',
        encoding="utf-8",
    )
    config = tmp_path / "c.yaml"
    config.write_text(
        "corpus:\n  records: corpus.jsonl\n"
        "decoding:\n  retry: 1\n  fallback: abort\n  backoff_initial: 0\n"
        "backend:\n  kind: scripted\n  script_file: script.json\n",
        encoding="utf-8",
    )
    code = run(["translate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("script, named", [
    ([1], "backend script"),
    ("abc", "backend script"),
    ({"山风吹过高原。": 5}, "山风吹过高原。"),
    ({"山风吹过高原。": []}, "山风吹过高原。"),
    ({"山风吹过高原。": [{"text": 5}]}, "山风吹过高原。"),
    ({"山风吹过高原。": [{"error": "bogus"}]}, "山风吹过高原。"),
    ({"山风吹过高原。": ["text"]}, "each step needs 'text' or 'error'"),
    ({"山风吹过高原。": [["text"]]}, "each step needs 'text' or 'error'"),
], ids=["root-list", "root-string", "value-int", "value-empty", "text-int", "error-unknown",
        "step-string", "step-list"])
def test_malformed_backend_script_is_config_error(
    toy_dir, toy_config_path, tmp_path, script, named, capsys
):
    if isinstance(script, dict):
        toy_script = json.loads((toy_dir / "backend_script.json").read_text(encoding="utf-8"))
        script = {**toy_script, **script}
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "out"
    code = run([
        "translate", "--config", toy_config_path, "--out", str(out),
        "--set", f"backend.script_file={script_path}",
    ])
    err = capsys.readouterr().err  # read first, so a failure shows it
    assert code == 1, err
    assert named in err and "Traceback" not in err, err
    assert not (out / "hypotheses.jsonl").exists()


@pytest.mark.parametrize("fallback", ["copy_source", "abort"])
def test_translate_zero_retry_is_config_error(toy_config_path, tmp_path, fallback, capsys):
    code = run([
        "translate", "--config", toy_config_path, "--out", str(tmp_path),
        "--set", "decoding.retry=0", "--set", f"decoding.fallback={fallback}",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "decoding.retry" in err and "Traceback" not in err
    assert not (tmp_path / "hypotheses.jsonl").exists()


@pytest.mark.parametrize(
    "override",
    [
        "stages.stage1_budget=x",
        "decoding.parallelism=x",
        "decoding.parallelism=1.5",
        "decoding.backoff_initial=x",
        "decoding.exemplar_count=1.5",
        "retrieval.keyword_count=2.5",
        "decoding.templates=x",
        "corpus.records=[1]",
        "output_dir=[1]",
        "decoding.retry=true",
        "backend.timeout=x",
        "decoding.history_size=[1",  # not YAML
    ],
)
def test_ill_typed_value_is_config_error(toy_config_path, tmp_path, override, capsys):
    out = tmp_path / "out"
    code = run(["translate", "--config", toy_config_path, "--out", str(out), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("decoding.templates.main=1", "decoding.templates: expected dict[str, str], got {'main': 1}"),
    ("backend.table.x=1", "backend.table: expected dict[str, str], got {'x': 1}"),
], ids=["templates", "table"])
def test_ill_typed_mapping_entry_is_config_error(toy_config_path, tmp_path, override, message, capsys):
    out = tmp_path / "out"
    assert run(["prepare", "1", "--config", toy_config_path, "--out", str(out), "--set", override]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides,key",
    [
        (["stages.stage1_budget=0"], "stages.stage1_budget"),
        (["stages.stage2_budget=0"], "stages.stage2_budget"),
        (["decoding.parallelism=0"], "decoding.parallelism"),
        (["metrics.max_order=0"], "metrics.max_order"),
        (["backend.kind=scripted", "backend.script_file=null"], "backend.script_file"),
    ],
)
def test_out_of_range_value_is_config_error_naming_its_key(
    toy_config_path, tmp_path, overrides, key, capsys
):
    out = tmp_path / "out"
    args = ["translate", "--config", toy_config_path, "--out", str(out)]
    for override in overrides:
        args += ["--set", override]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


NO_RUN_COULD_USE = [
    # a wait no run can sleep: time.sleep or the socket would raise
    "decoding.backoff_initial=.inf",
    "decoding.backoff_initial=.nan",
    "decoding.backoff_factor=.inf",
    "decoding.backoff_factor=.nan",
    "backend.timeout=.inf",
    "backend.timeout=.nan",
    "backend.timeout=86401",
    "backend.rate_limit_rps=.inf",
    "backend.rate_limit_rps=.nan",
    "backend.rate_limit_rps=1.0e-300",
    "backend.rate_limit_rps=1.0e-5",
    # every request refused, or every prompt too long
    "backend.max_tokens=0",
    "backend.max_tokens=-5",
    "backend.max_prompt_chars=0",
    "backend.max_prompt_chars=-1",
]


@pytest.mark.parametrize("override", NO_RUN_COULD_USE)
def test_value_no_run_could_use_is_config_error_naming_its_key(
    toy_config_path, tmp_path, override, monkeypatch, capsys
):
    sent = []
    monkeypatch.setattr(http.client.HTTPConnection, "request", lambda self, *a, **kw: sent.append(a))
    out = tmp_path / "out"
    code = run([
        "translate", "--config", toy_config_path, "--out", str(out),
        "--set", "backend.kind=http",
        "--set", "backend.base_url=http://127.0.0.1:1",
        "--set", override,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err
    assert sent == [] and not out.exists()


# --- YAML loaders: libyaml's where PyYAML has it, else the pure-Python one ---

_NO_LIBYAML = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml"
)
YAML_LOADERS = [
    pytest.param("SafeLoader", id="SafeLoader"),
    pytest.param("CSafeLoader", id="CSafeLoader", marks=_NO_LIBYAML),
]


def _load_outcome(config_path, overrides):
    try:
        return load_config(config_path, overrides=overrides)
    except ConfigError as exc:
        return str(exc)


@_NO_LIBYAML
def test_both_yaml_loaders_give_equal_configs(toy_config_path, monkeypatch):
    assert config_mod._YAML_LOADER is yaml.CSafeLoader
    cases = [[]] + [
        ["backend.kind=http", "backend.base_url=http://127.0.0.1:1", override]
        for override in NO_RUN_COULD_USE
    ]
    for overrides in cases:
        outcomes = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(config_mod, "_YAML_LOADER", loader)
            outcomes.append(_load_outcome(toy_config_path, overrides))
        assert outcomes[0] == outcomes[1], overrides
        assert isinstance(outcomes[0], RunConfig if not overrides else str)


@pytest.mark.parametrize("loader", YAML_LOADERS)
def test_invalid_yaml_is_config_error_under_either_loader(
    toy_config_path, tmp_path, loader, monkeypatch, capsys
):
    monkeypatch.setattr(config_mod, "_YAML_LOADER", getattr(yaml, loader))
    bad = tmp_path / "bad.yaml"
    bad.write_text("decoding:\n  history_size: [1\n", encoding="utf-8")
    assert run(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"invalid YAML in {bad}:" in err and "Traceback" not in err

    out = tmp_path / "out"
    args = ["translate", "--config", toy_config_path, "--out", str(out)]
    assert run(args + ["--set", "decoding.history_size=[1"]) == 1
    err = capsys.readouterr().err
    assert "--set decoding.history_size: invalid YAML value:" in err and "Traceback" not in err
    assert not out.exists()


# --- evaluate ---

@pytest.fixture()
def translated(toy_config_path, tmp_path):
    out = tmp_path / "out"
    assert run(["translate", "--config", toy_config_path, "--out", str(out)]) == 0
    return out


def test_evaluate_pinned_scores(toy_config_path, toy_dir, translated, bleu_fixture, capsys):
    hyp = str(translated / "hypotheses.jsonl")
    ref = str(toy_dir / "corpus.jsonl")
    assert run(["evaluate", hyp, ref, "--config", toy_config_path, "--out", str(translated)]) == 0
    out = capsys.readouterr().out
    pinned = bleu_fixture["toy_eval"]
    assert f"{pinned['s_bleu']:.2f}" in out
    assert f"{pinned['d_bleu']:.2f}" in out
    sentence = json.loads(read_lines(translated / "eval_sentence.json"))
    document = json.loads(read_lines(translated / "eval_document.json"))
    assert sentence["score"] == pytest.approx(pinned["s_bleu"], abs=1e-9)
    assert document["score"] == pytest.approx(pinned["d_bleu"], abs=1e-9)
    assert sentence["segmentation"] == "sentence"
    assert document["config"]["tokenization"] == "intl-13a"


def test_evaluate_identity_is_100(toy_config_path, toy_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["translate", "--config", toy_config_path, "--out", str(out),
                "--set", "backend.kind=identity"]) == 0
    # hypotheses equal sources; score them against the sources as references
    hyp_records = [json.loads(l) for l in read_lines(out / "hypotheses.jsonl").splitlines()]
    assert all(r["hypothesis"] == r["source"] for r in hyp_records)
    ref = tmp_path / "self_ref.jsonl"
    ref.write_text(
        "".join(
            json.dumps({**r, "target": r["source"]}, ensure_ascii=False) + "\n"
            for r in hyp_records
        ),
        encoding="utf-8",
    )
    assert run(["evaluate", str(out / "hypotheses.jsonl"), str(ref),
                "--config", toy_config_path, "--out", str(out),
                "--set", "metrics.tokenization=character"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("100.00") == 2


def test_evaluate_alignment_gap_exit_code(toy_config_path, toy_dir, translated, capsys):
    hyp_lines = read_lines(translated / "hypotheses.jsonl").splitlines()
    partial = translated / "partial.jsonl"
    partial.write_text("".join(l + "\n" for l in hyp_lines[:-1]), encoding="utf-8")
    code = run(["evaluate", str(partial), str(toy_dir / "corpus.jsonl"),
                "--config", toy_config_path, "--out", str(translated)])
    assert code == 3
    err = capsys.readouterr().err
    assert "tower" in err and "1" in err


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("[1]", "record must be an object"),
        ('"x"', "record must be an object"),
        ('{"doc_id": "tower", "seg_index": 1, "hypothesis": null}', "'hypothesis'"),
        ('{"doc_id": "tower", "seg_index": 1, "hypothesis": 7}', "'hypothesis'"),
        ('{"doc_id": "tower", "seg_index": [1], "hypothesis": "h"}', "seg_index"),
        (None, "duplicate segment .* already defined at line 1"),
    ],
    ids=["list", "string", "null-hypothesis", "numeric-hypothesis", "list-seg-index",
         "duplicate"],
)
def test_evaluate_malformed_hypothesis_is_config_error(
    toy_config_path, toy_dir, tmp_path, capsys, bad_line, message
):
    first = json.loads(read_lines(toy_dir / "corpus.jsonl").splitlines()[0])
    good = json.dumps({**first, "hypothesis": first["target"]}, ensure_ascii=False)
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(f"{good}\n{bad_line or good}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run(["evaluate", str(hyps), str(toy_dir / "corpus.jsonl"),
                "--config", toy_config_path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert re.search(f"line 2: .*{message}", err), err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("eval_*.json"))


def test_read_hypotheses_keys_share_one_doc_id_per_document(tmp_path):
    path = tmp_path / "hyps.jsonl"
    path.write_text("".join(
        json.dumps({"doc_id": doc_id, "seg_index": i, "hypothesis": "h"}) + "\n"
        for doc_id in ("tower-a", "tower-b", "tower-a-2")
        for i in range(3)
    ), encoding="utf-8")
    keys = cli.read_hypotheses(path)
    assert len(keys) == 9
    for doc_id in ("tower-a", "tower-b", "tower-a-2"):
        assert len({id(d) for d, _ in keys if d == doc_id}) == 1


def test_evaluate_frees_the_reference_corpus_before_scoring(
    toy_config_path, toy_dir, translated, monkeypatch
):
    loaded = []
    load_records, s_bleu = corpus_mod.load_records, metrics_mod.s_bleu

    def load_and_watch(path):
        corpus = load_records(path)
        loaded.append(weakref.ref(corpus))
        return corpus

    def s_bleu_once_freed(*args):
        assert [ref() for ref in loaded] == [None]
        return s_bleu(*args)

    monkeypatch.setattr(corpus_mod, "load_records", load_and_watch)
    monkeypatch.setattr(metrics_mod, "s_bleu", s_bleu_once_freed)
    assert run(["evaluate", str(translated / "hypotheses.jsonl"), str(toy_dir / "corpus.jsonl"),
                "--config", toy_config_path, "--out", str(translated)]) == 0


def test_config_output_dir_is_relative_to_config_file(toy_dir, tmp_path, monkeypatch):
    config_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
    config_dir.mkdir()
    elsewhere.mkdir()
    config = config_dir / "c.yaml"
    config.write_text("output_dir: out\n", encoding="utf-8")
    refs = toy_dir / "corpus.jsonl"
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(
        "".join(
            json.dumps({**r, "hypothesis": r["target"]}, ensure_ascii=False) + "\n"
            for r in map(json.loads, read_lines(refs).splitlines())
        ),
        encoding="utf-8",
    )
    monkeypatch.chdir(elsewhere)
    assert run(["evaluate", str(hyps), str(refs), "--config", str(config)]) == 0
    assert (config_dir / "out" / "eval_sentence.json").exists()
    assert not (elsewhere / "out").exists()
    # --out is a command-line path and follows the working directory
    assert run(["evaluate", str(hyps), str(refs), "--config", str(config), "--out", "cli"]) == 0
    assert (elsewhere / "cli" / "eval_document.json").exists()


# --- validate ---

def test_line_aligned_corpus_runs_every_command(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("山风\n高原\n===\n夜\n", encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("wind\nplateau\n===\nnight\n", encoding="utf-8")
    config = tmp_path / "c.yaml"
    config.write_text(
        "corpus:\n  source_file: src.txt\n  target_file: tgt.txt\n  boundary_marker: '==='\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = ["--config", str(config), "--out", str(out)]
    assert run(["validate", *args]) == 0
    assert "2 documents, 3 sentence pairs, parallel" in capsys.readouterr().out
    assert run(["prepare", "2", *args]) == 0
    assert read_lines(out / "stage2_interlinear.txt") == (
        "<src> 山风\n<tgt> wind\n<src> 高原\n<tgt> plateau\n\n<src> 夜\n<tgt> night\n"
    )
    assert run(["translate", *args]) == 0
    rows = [json.loads(line) for line in read_lines(out / "hypotheses.jsonl").splitlines()]
    assert [(r["doc_id"], r["seg_index"], r["hypothesis"]) for r in rows] == [
        ("doc0000", 0, "山风"), ("doc0000", 1, "高原"), ("doc0001", 0, "夜")
    ]
    # without target_file the same source file is a monolingual corpus
    config.write_text("corpus:\n  source_file: src.txt\n  boundary_marker: '==='\n", encoding="utf-8")
    assert run(["validate", *args]) == 0
    assert "2 documents, 3 sentence pairs, monolingual" in capsys.readouterr().out


def test_config_naming_no_corpus_is_config_error(tmp_path, capsys):
    config = tmp_path / "c.yaml"
    config.write_text("corpus:\n  name: nothing\n", encoding="utf-8")
    assert run(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "error: config names no corpus (corpus.records or corpus.source_file)\n"
    )


def test_validate_toy_corpus(toy_config_path, capsys):
    assert run(["validate", "--config", toy_config_path]) == 0
    out = capsys.readouterr().out
    assert "corpus valid" in out
    assert "3 documents" in out


def test_validate_bad_corpus(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(
        '{"doc_id": "a", "seg_index": 0, "source": "x"}\n'
        '{"doc_id": "a", "seg_index": 0, "source": "y"}\n',
        encoding="utf-8",
    )
    config = tmp_path / "c.yaml"
    config.write_text("corpus:\n  records: bad.jsonl\n", encoding="utf-8")
    assert run(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "duplicate" in err
    assert err.startswith("error: line 2: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("line_break", ["\n", "\u2028"], ids=["newline", "line-separator"])
@pytest.mark.parametrize("command", [["validate"], ["translate"], ["prepare", "2"]])
def test_source_with_line_break_is_rejected_by_every_command(
    tmp_path, line_break, command, capsys
):
    # stage 2 writes one text per line, so every command rejects what it
    # could not write, at load, before any output exists
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        json.dumps({"doc_id": "a", "source": "山风", "target": "wind"}) + "\n"
        + json.dumps({"doc_id": "a", "source": f"高{line_break}原", "target": "plateau"}) + "\n",
        encoding="utf-8",
    )
    config = tmp_path / "c.yaml"
    config.write_text("corpus:\n  records: c.jsonl\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([*command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 2: source text contains a line break" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["validate"], ["translate"], ["prepare", "1"]])
def test_source_with_lone_surrogate_is_rejected_by_every_command(tmp_path, command, capsys):
    # a JSON escape can hold a lone surrogate, which no output file can encode
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        json.dumps({"doc_id": "a", "source": "山风", "target": "wind"}) + "\n"
        + json.dumps({"doc_id": "a", "source": "\ud800x", "target": "plateau"}) + "\n",
        encoding="utf-8",
    )
    config = tmp_path / "c.yaml"
    config.write_text("corpus:\n  records: c.jsonl\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([*command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 2: source text cannot be encoded as UTF-8" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["validate"], ["prepare", "1"]])
def test_non_string_chapter_id_is_rejected(tmp_path, command, capsys):
    # 0 and false are not the implicit chapter "", so this file does not
    # fail as if a chapter "" it never named restarted
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"doc_id": "a", "chapter_id": chapter_id, "source": source}) + "\n"
            for chapter_id, source in [(0, "山风"), (1, "高原"), (False, "夜")]
        ),
        encoding="utf-8",
    )
    config = tmp_path / "c.yaml"
    config.write_text("corpus:\n  records: c.jsonl\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([*command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 1: non-string 'chapter_id'" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_config_flag(capsys):
    assert run(["validate"]) == 1
    assert "--config" in capsys.readouterr().err


def test_bad_instruction_template_is_config_error(toy_config_path, tmp_path, capsys):
    code = run([
        "prepare", "baseline", "--config", toy_config_path, "--out", str(tmp_path),
        "--set", "stages.sentence_instruction=No placeholder here",
    ])
    assert code == 1
    assert "source" in capsys.readouterr().err


def test_template_with_a_format_spec_fails_at_config_load(toy_config_path, tmp_path, capsys):
    # prepare 1 renders no prompt, so only the load-time check can reject it
    main = tmp_path / "main.txt"
    main.write_text("{system}{context}{exemplars}{source:d}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run(["prepare", "1", "--config", toy_config_path, "--out", str(out),
                "--set", f"decoding.templates.main={main}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "main template placeholder {source:d}" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_against_references_without_targets_is_config_error(
    toy_config_path, translated, tmp_path, capsys
):
    refs = tmp_path / "mono.jsonl"
    refs.write_text('{"doc_id": "a", "source": "只有源文"}\n', encoding="utf-8")
    code = run(["evaluate", str(translated / "hypotheses.jsonl"), str(refs),
                "--config", toy_config_path, "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == "error: reference corpus has no targets\n"
    assert not (tmp_path / "eval").exists()


def test_evaluate_missing_file_is_config_error(toy_config_path, tmp_path, capsys):
    code = run(["evaluate", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope2.jsonl"),
                "--config", toy_config_path, "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# --- every toy output pinned byte for byte ---

@pytest.fixture(scope="module")
def toy_outputs(toy_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    config = str(toy_dir / "config.yaml")
    for args in (["prepare", "2"], ["prepare", "3"], ["prepare", "baseline"], ["translate"]):
        assert run([*args, "--config", config, "--out", str(out)]) == 0
    refs = str(toy_dir / "corpus.jsonl")
    assert run(["evaluate", str(out / "hypotheses.jsonl"), refs,
                "--config", config, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", [
    "stage2_interlinear.txt",
    "stage3_instructions.jsonl",
    "baseline_instructions.jsonl",
    "eval_sentence.json",
    "eval_document.json",
    "run_manifest.json",
])
def test_toy_output_matches_golden(toy_outputs, data_dir, name):
    got = (toy_outputs / name).read_bytes()
    if name == "run_manifest.json":
        # the run's wall-clock timestamps are the only bytes that differ per run
        got = re.sub(rb'\n  "(started|finished)": "[^"]*",', b"", got)
    assert got == (data_dir / "golden" / name).read_bytes()


def test_prepare_idempotent(toy_config_path, tmp_path):
    out = tmp_path / "out"
    for _ in range(2):
        assert run(["prepare", "1", "--config", toy_config_path, "--out", str(out)]) == 0
        assert run(["prepare", "3", "--config", toy_config_path, "--out", str(out)]) == 0
    first_s1 = read_lines(out / "stage1_paragraphs.jsonl")
    first_s3 = read_lines(out / "stage3_instructions.jsonl")
    assert run(["prepare", "1", "--config", toy_config_path, "--out", str(out)]) == 0
    assert read_lines(out / "stage1_paragraphs.jsonl") == first_s1
    assert read_lines(out / "stage3_instructions.jsonl") == first_s3

import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from littrans import config as config_mod
from littrans.backend import HttpBackendConfig
from littrans.cli import main
from littrans.config import ConfigError, load_config
from littrans.decoder import DecodingConfig
from littrans.metrics import BleuConfig
from littrans.prompts import PromptTemplate

# Every key the loader accepts, with its default. Adding, losing or
# re-defaulting a knob must show up here.
DEFAULTS = {
    "corpus.records": None,
    "corpus.test_records": None,
    "corpus.source_file": None,
    "corpus.target_file": None,
    "corpus.boundary_marker": "",
    "corpus.language_pair": "",
    "corpus.name": "",
    "stages.stage1_budget": 1024,
    "stages.stage1_side": "source",
    "stages.stage1_joiner": None,
    "stages.stage2_budget": 1024,
    "stages.sentence_instruction": None,
    "retrieval.similarity_alpha": 0.5,
    "retrieval.keyword_count": 5,
    "retrieval.external_pool": None,
    "decoding.history_size": 3,
    "decoding.exemplar_count": 2,
    "decoding.retry": 3,
    "decoding.fallback": "copy_source",
    "decoding.backoff_initial": 1.0,
    "decoding.backoff_factor": 2.0,
    "decoding.parallelism": 1,
    "decoding.system_text": None,
    "decoding.templates": {},
    "backend.kind": "identity",
    "backend.base_url": "",
    "backend.path": "/v1/chat/completions",
    "backend.model": "",
    "backend.api_key_env": None,
    "backend.temperature": 0.0,
    "backend.max_tokens": 512,
    "backend.timeout": 60.0,
    "backend.rate_limit_rps": None,
    "backend.supports_system_role": True,
    "backend.max_prompt_chars": None,
    "backend.table": {},
    "backend.script_file": None,
    "metrics.max_order": 4,
    "metrics.smoothing": "exp-floor",
    "metrics.tokenization": "intl-13a",
    "metrics.lowercase": False,
    "output_dir": "out",
}


@pytest.fixture()
def empty_config(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("", encoding="utf-8")
    return path


def test_accepted_keys_are_exactly_the_declared_ones():
    assert len(DEFAULTS) == 42
    declared = {f"{section}.{key}" for section, keys in config_mod._SCHEMA.items() for key in keys}
    assert declared | {"output_dir"} == set(DEFAULTS)


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_each_key_loads_with_its_default(empty_config, key):
    # setting a key to its default changes nothing
    override = f"{key}={json.dumps(DEFAULTS[key])}"
    assert load_config(empty_config, overrides=[override]) == load_config(empty_config)


@pytest.mark.parametrize(
    "key",
    [
        "decoding.max_attempts",
        "decoding.keyword_count",
        "decoding.template",
        "retrieval.history_size",
        "retrieval.parallelism",
        "backend.template",
        "backend.parallelism",
        "metrics.retry",
    ],
)
def test_near_miss_key_rejected(empty_config, key):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(empty_config, overrides=[f"{key}=1"])


def test_empty_config_defaults(empty_config):
    config = load_config(empty_config)
    assert config.decoding == DecodingConfig()
    assert config.metrics == BleuConfig()
    assert config.http is None
    http = load_config(
        empty_config, overrides=["backend.kind=http", "backend.base_url=http://h"]
    ).http
    assert http == HttpBackendConfig(
        base_url="http://h",
        model="",
        path="/v1/chat/completions",
        api_key_env=None,
        temperature=0.0,
        max_tokens=512,
        timeout=60.0,
        rate_limit_rps=None,
        supports_system_role=True,
        max_prompt_chars=None,
        template=PromptTemplate(),
    )


def test_http_backend_requires_base_url(empty_config):
    with pytest.raises(ConfigError, match="backend.base_url"):
        load_config(empty_config, overrides=["backend.kind=http", "backend.base_url="])


def test_int_satisfies_float_without_coercion(empty_config):
    config = load_config(empty_config, overrides=["decoding.backoff_initial=0"])
    assert type(config.decoding.backoff_initial) is int


def test_override_into_empty_section(tmp_path):
    # a section left empty in YAML loads as None; --set fills it in
    empty = tmp_path / "empty.yaml"
    empty.write_text("decoding:\n", encoding="utf-8")
    explicit = tmp_path / "explicit.yaml"
    explicit.write_text("decoding:\n  history_size: 2\n", encoding="utf-8")
    assert load_config(empty, overrides=["decoding.history_size=2"]) == load_config(explicit)


@pytest.mark.parametrize("text, overrides, message", [
    ("", ["output_dir=o", "output_dir.x=1"], "--set output_dir.x: 'output_dir' is not a section"),
    ("bogus:\n  x: 1\n", [], "unknown top-level config key 'bogus'"),
    ("decoding: 3\n", [], "config section 'decoding' must be a mapping"),
    ("- decoding\n", [], "config root must be a mapping"),
    ("", ["decoding.history_size"], "--set expects KEY=VALUE, got 'decoding.history_size'"),
    ("decoding:\n  templates:\n    bogus: t.txt\n", [], "unknown template part: .*bogus"),
], ids=["set-through-a-value", "unknown-section", "section-not-a-mapping", "root-not-a-mapping",
        "set-without-equals", "unknown-template-part"])
def test_malformed_config_is_rejected_naming_its_fault(tmp_path, text, overrides, message):
    (tmp_path / "t.txt").write_text("{source}", encoding="utf-8")
    path = tmp_path / "c.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{message}"):
        load_config(path, overrides=overrides)


def tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


values = st.one_of(
    st.integers(min_value=-3, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
    st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
    st.none(),
)


@settings(max_examples=50, deadline=None)
@given(
    key=st.sampled_from(sorted(DEFAULTS)),
    value=values,
    command=st.sampled_from([["prepare", "1"], ["translate", "--dry-run"]]),
)
def test_any_override_runs_or_exits_cleanly(toy_dir, tmp_path_factory, key, value, command):
    data_root = toy_dir.parent
    before = tree(data_root)
    out = tmp_path_factory.mktemp("out")
    code = main([
        *command, "--config", str(toy_dir / "config.yaml"), "--out", str(out),
        "--set", f"{key}={yaml.safe_dump(value)}",
    ])
    assert code in (0, 1, 2)
    assert tree(data_root) == before

"""Run configuration: one YAML file capturing every free parameter.

Precedence is CLI --set overrides > config file > defaults. Referenced
paths are checked eagerly at load time so a bad run dies before producing
partial outputs. Each key is one field of the dataclass that consumes it,
whose annotation (checked before any constructor runs) and default are the
key's only type and default: `corpus:` CorpusPaths, `stages:`
StageSettings, `decoding:` and `retrieval:` DecodingConfig (`retry` is
`max_attempts`), `backend:` HttpBackendConfig (for `kind: http`),
`metrics:` BleuConfig; keys only the loader or the CLI reads: LoaderSettings.
"""

from __future__ import annotations

import types
import typing
from collections import defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Literal

import yaml

from .backend import HttpBackendConfig
from .decoder import DecodingConfig
from .metrics import BleuConfig
from .prompts import PromptTemplate, TemplateError


class ConfigError(Exception):
    pass


@dataclass
class CorpusPaths:
    records: str | None = None
    test_records: str | None = None
    source_file: str | None = None
    target_file: str | None = None
    boundary_marker: str = ""
    language_pair: str = ""
    name: str = ""


@dataclass
class StageSettings:
    stage1_budget: int = 1024
    stage1_side: Literal["source", "target"] = "source"
    stage1_joiner: str | None = None
    stage2_budget: int = 1024
    sentence_instruction: str | None = None


@dataclass
class LoaderSettings:
    """Keys read only by the loader (prompt template) or the CLI."""

    parallelism: int = 1
    system_text: str | None = None
    templates: dict[str, str] = field(default_factory=dict)
    external_pool: str | None = None
    kind: Literal["identity", "table", "scripted", "http"] = "identity"
    table: dict[str, str] = field(default_factory=dict)
    script_file: str | None = None


@dataclass
class RunConfig:
    corpus: CorpusPaths = field(default_factory=CorpusPaths)
    stages: StageSettings = field(default_factory=StageSettings)
    decoding: DecodingConfig = field(default_factory=DecodingConfig)
    metrics: BleuConfig = field(default_factory=BleuConfig)
    loader: LoaderSettings = field(default_factory=LoaderSettings)
    http: HttpBackendConfig | None = None
    output_dir: Path = Path("out")
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path_value: str) -> Path:
        """Paths in the config are relative to the config file."""
        p = Path(path_value)
        return p if p.is_absolute() else self.base_dir / p


def _fields(owner: type, names: str = "", **renamed: str) -> dict[str, tuple]:
    """YAML key -> (owner, field, annotation); without names, every field but
    `template`, which the loader builds from `decoding.templates`."""
    hints = typing.get_type_hints(owner)
    keys = names.split() or [f.name for f in fields(owner) if f.name != "template"]
    return {k: (owner, n, hints[n]) for k, n in ({k: k for k in keys} | renamed).items()}


_SCHEMA = {
    "corpus": _fields(CorpusPaths),
    "stages": _fields(StageSettings),
    "retrieval": _fields(DecodingConfig, "similarity_alpha keyword_count")
    | _fields(LoaderSettings, "external_pool"),
    "decoding": _fields(LoaderSettings, "parallelism system_text templates")
    | _fields(DecodingConfig, "history_size exemplar_count", retry="max_attempts")
    | _fields(DecodingConfig, "fallback backoff_initial backoff_factor"),
    "backend": _fields(HttpBackendConfig) | _fields(LoaderSettings, "kind table script_file"),
    "metrics": _fields(BleuConfig),
}


def _conforms(value: Any, hint: Any) -> bool:
    """isinstance() against an annotation; a bool is no int, an int is a float."""
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is Literal:
        return value in typing.get_args(hint)
    if typing.get_origin(hint) is dict:
        key_type, value_type = typing.get_args(hint)
        return isinstance(value, dict) and all(
            _conforms(k, key_type) and _conforms(v, value_type) for k, v in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_type(key: str, value: Any, hint: Any) -> None:
    if not _conforms(value, hint):
        expected = hint.__name__ if isinstance(hint, type) else str(hint).removeprefix("typing.")
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")


def _apply_override(data: dict, dotted_key: str, raw_value: str) -> None:
    try:
        value = yaml.safe_load(raw_value)
    except yaml.YAMLError as exc:
        raise ConfigError(f"--set {dotted_key}: invalid YAML value: {exc}") from exc
    keys = dotted_key.split(".")
    node = data
    for key in keys[:-1]:
        if node.get(key) is None:  # a section left empty in YAML loads as None
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted_key}: {key!r} is not a section")
    node[keys[-1]] = value


def _field_values(data: dict) -> dict[type, dict[str, Any]]:
    """Owner dataclass -> {field: value} for every key set, type-checked."""
    values: dict[type, dict[str, Any]] = defaultdict(dict)
    for section, node in data.items():
        if section == "output_dir":
            _check_type(section, node, str)
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown top-level config key {section!r}")
        if not isinstance(node, dict | None):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key, value in (node or {}).items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            owner, name, hint = _SCHEMA[section][key]
            _check_type(f"{section}.{key}", value, hint)
            values[owner][name] = value
    return values


def load_config(
    path: str | Path,
    overrides: list[str] | None = None,
    output_dir: str | None = None,
) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        _apply_override(data, key.strip(), value)

    values = _field_values(data)
    try:
        config = RunConfig(
            corpus=CorpusPaths(**values[CorpusPaths]),
            stages=StageSettings(**values[StageSettings]),
            metrics=BleuConfig(**values[BleuConfig]),
            loader=LoaderSettings(**values[LoaderSettings]),
            base_dir=path.parent,
        )
    except ValueError as exc:
        raise ConfigError(f"section 'metrics': {exc}") from exc
    config.output_dir = (
        Path(output_dir)
        if output_dir is not None
        else config.resolve(data.get("output_dir", "out"))
    )
    _check_paths(config)
    _check_ranges(config)
    template = _prompt_template(config)
    try:
        config.decoding = DecodingConfig(**values[DecodingConfig], template=template)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.loader.kind == "http":
        if not values[HttpBackendConfig].get("base_url"):
            raise ConfigError("backend.base_url is required for the http backend")
        config.http = HttpBackendConfig(**values[HttpBackendConfig], template=template)
    return config


def _prompt_template(config: RunConfig) -> PromptTemplate:
    parts: dict[str, str] = {}
    for part, path_value in config.loader.templates.items():
        text = config.resolve(path_value).read_text(encoding="utf-8")
        if text.endswith("\n"):
            text = text[:-1]
        parts[part] = text
    if config.loader.system_text is not None:
        parts["system"] = config.loader.system_text
    try:
        return PromptTemplate(**parts)
    except TypeError as exc:
        raise ConfigError(f"unknown template part: {exc}") from exc
    except TemplateError as exc:
        raise ConfigError(str(exc)) from exc


def _check_paths(config: RunConfig) -> None:
    candidates = [
        ("corpus.records", config.corpus.records),
        ("corpus.test_records", config.corpus.test_records),
        ("corpus.source_file", config.corpus.source_file),
        ("corpus.target_file", config.corpus.target_file),
        ("retrieval.external_pool", config.loader.external_pool),
        ("backend.script_file", config.loader.script_file),
    ]
    candidates += [
        (f"decoding.templates.{part}", p) for part, p in config.loader.templates.items()
    ]
    for key, value in candidates:
        if value is not None and not config.resolve(value).exists():
            raise ConfigError(f"{key}: path does not exist: {config.resolve(value)}")


def _check_ranges(config: RunConfig) -> None:
    if config.stages.stage1_budget < 1 or config.stages.stage2_budget < 1:
        raise ConfigError("stage budgets must be >= 1")
    if config.loader.parallelism < 1:
        raise ConfigError("decoding.parallelism must be >= 1")
    if config.loader.kind == "scripted" and not config.loader.script_file:
        raise ConfigError("backend.script_file is required for the scripted backend")

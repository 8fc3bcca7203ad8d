"""Run configuration: one YAML file capturing every free parameter.

Precedence is CLI --set overrides > config file > defaults. Referenced
paths are checked eagerly at load time so a bad run dies before producing
partial outputs. Each key is one field of the dataclass that consumes it,
whose annotation (checked before any constructor runs) and default are the
key's only type and default: `corpus:` CorpusPaths, `stages:`
StageSettings, `decoding:` and `retrieval:` DecodingConfig (`retry` is
`max_attempts`), `backend:` HttpBackendConfig (for `kind: http`),
`metrics:` BleuConfig; keys only the loader or the CLI reads: LoaderSettings.
Each of these dataclasses checks its own ranges in __post_init__, naming
the dotted key; the loader turns that ValueError into ConfigError.
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
from .stages import DEFAULT_BUDGET


class ConfigError(Exception):
    pass


# the safe constructor and resolver on libyaml's scanner and parser, where
# PyYAML was built with it: the same values, parsed several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class CorpusPaths:
    records: str | None = None
    test_records: str | None = None
    source_file: str | None = None
    target_file: str | None = None
    boundary_marker: str = ""
    # labels a config may carry; no command reads them
    language_pair: str = ""
    name: str = ""


@dataclass
class StageSettings:
    stage1_budget: int = DEFAULT_BUDGET
    stage1_side: Literal["source", "target"] = "source"
    stage1_joiner: str | None = None
    stage2_budget: int = DEFAULT_BUDGET
    sentence_instruction: str | None = None

    def __post_init__(self):
        for key in ("stage1_budget", "stage2_budget"):
            if getattr(self, key) < 1:
                raise ValueError(f"stages.{key} must be >= 1")


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

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError("decoding.parallelism must be >= 1")
        if self.kind == "scripted" and not self.script_file:
            raise ValueError("backend.script_file is required for the scripted backend")


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
        value = yaml.load(raw_value, Loader=_YAML_LOADER)
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
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER) or {}
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
        _check_paths(config)
        template = _prompt_template(config)
        config.decoding = DecodingConfig(**values[DecodingConfig], template=template)
        if config.loader.kind == "http":
            config.http = HttpBackendConfig(**values[HttpBackendConfig], template=template)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config.output_dir = (
        Path(output_dir)
        if output_dir is not None
        else config.resolve(data.get("output_dir", "out"))
    )
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

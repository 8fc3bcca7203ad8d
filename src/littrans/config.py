"""Run configuration: one YAML file capturing every free parameter.

Precedence is CLI --set overrides > config file > defaults. Referenced
paths are checked eagerly at load time so a bad run dies before producing
partial outputs. The domain configs (DecodingConfig, BleuConfig) are built
here, once per load, and validate their own ranges; every command takes
them from the loaded RunConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

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
    stage1_side: str = "source"
    stage1_joiner: str | None = None
    stage2_budget: int = 1024
    sentence_instruction: str | None = None


@dataclass
class RetrievalSettings:
    similarity_alpha: float = 0.5
    keyword_count: int = 5
    external_pool: str | None = None


@dataclass
class DecodingSettings:
    history_size: int = 3
    exemplar_count: int = 2
    retry: int = 3
    fallback: str = "copy_source"
    backoff_initial: float = 1.0
    backoff_factor: float = 2.0
    parallelism: int = 1
    system_text: str | None = None
    templates: dict[str, str] = field(default_factory=dict)


@dataclass
class BackendSettings:
    kind: str = "identity"
    base_url: str = ""
    path: str = "/v1/chat/completions"
    model: str = ""
    api_key_env: str | None = None
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0
    rate_limit_rps: float | None = None
    supports_system_role: bool = True
    max_prompt_chars: int | None = None
    table: dict[str, str] = field(default_factory=dict)
    script_file: str | None = None


@dataclass
class RunConfig:
    corpus: CorpusPaths = field(default_factory=CorpusPaths)
    stages: StageSettings = field(default_factory=StageSettings)
    retrieval: RetrievalSettings = field(default_factory=RetrievalSettings)
    decoding: DecodingSettings = field(default_factory=DecodingSettings)
    backend: BackendSettings = field(default_factory=BackendSettings)
    metrics: BleuConfig = field(default_factory=BleuConfig)
    output_dir: Path = Path("out")
    base_dir: Path = field(default_factory=Path)
    decoding_config: DecodingConfig = field(default_factory=DecodingConfig)

    def resolve(self, path_value: str) -> Path:
        """Paths in the config are relative to the config file."""
        p = Path(path_value)
        return p if p.is_absolute() else self.base_dir / p


_SECTIONS = {
    "corpus": CorpusPaths,
    "stages": StageSettings,
    "retrieval": RetrievalSettings,
    "decoding": DecodingSettings,
    "backend": BackendSettings,
    "metrics": BleuConfig,
}


def _apply_override(data: dict, dotted_key: str, raw_value: str) -> None:
    value = yaml.safe_load(raw_value)
    keys = dotted_key.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted_key}: {key!r} is not a section")
    node[keys[-1]] = value


def _build_section(cls, data: Any, section: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {section!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


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

    unknown = set(data) - set(_SECTIONS) - {"output_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level config key {sorted(unknown)[0]!r}")

    config = RunConfig(
        **{name: _build_section(cls, data.get(name), name) for name, cls in _SECTIONS.items()},
        base_dir=path.parent,
    )
    config.output_dir = (
        Path(output_dir)
        if output_dir is not None
        else config.resolve(str(data.get("output_dir", "out")))
    )
    _check_paths(config)
    _check_ranges(config)
    config.decoding_config = _decoding_config(config)
    return config


def _prompt_template(config: RunConfig) -> PromptTemplate:
    parts: dict[str, str] = {}
    for part, path_value in config.decoding.templates.items():
        text = config.resolve(path_value).read_text(encoding="utf-8")
        if text.endswith("\n"):
            text = text[:-1]
        parts[part] = text
    if config.decoding.system_text is not None:
        parts["system"] = config.decoding.system_text
    try:
        return PromptTemplate(**parts)
    except TypeError as exc:
        raise ConfigError(f"unknown template part: {exc}") from exc
    except TemplateError as exc:
        raise ConfigError(str(exc)) from exc


def _decoding_config(config: RunConfig) -> DecodingConfig:
    d, r = config.decoding, config.retrieval
    try:
        return DecodingConfig(
            history_size=d.history_size,
            exemplar_count=d.exemplar_count,
            similarity_alpha=r.similarity_alpha,
            keyword_count=r.keyword_count,
            template=_prompt_template(config),
            max_attempts=d.retry,
            fallback=d.fallback,
            backoff_initial=d.backoff_initial,
            backoff_factor=d.backoff_factor,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_paths(config: RunConfig) -> None:
    candidates = [
        ("corpus.records", config.corpus.records),
        ("corpus.test_records", config.corpus.test_records),
        ("corpus.source_file", config.corpus.source_file),
        ("corpus.target_file", config.corpus.target_file),
        ("retrieval.external_pool", config.retrieval.external_pool),
        ("backend.script_file", config.backend.script_file),
    ]
    candidates += [
        (f"decoding.templates.{part}", p) for part, p in config.decoding.templates.items()
    ]
    for key, value in candidates:
        if value is not None and not config.resolve(value).exists():
            raise ConfigError(f"{key}: path does not exist: {config.resolve(value)}")


def _check_ranges(config: RunConfig) -> None:
    s = config.stages
    if s.stage1_budget < 1 or s.stage2_budget < 1:
        raise ConfigError("stage budgets must be >= 1")
    if s.stage1_side not in ("source", "target"):
        raise ConfigError("stages.stage1_side must be 'source' or 'target'")
    if config.decoding.parallelism < 1:
        raise ConfigError("decoding.parallelism must be >= 1")
    if config.backend.kind not in ("identity", "table", "scripted", "http"):
        raise ConfigError(f"unknown backend kind {config.backend.kind!r}")
    if config.backend.kind == "http" and not config.backend.base_url:
        raise ConfigError("backend.base_url is required for the http backend")
    if config.backend.kind == "scripted" and not config.backend.script_file:
        raise ConfigError("backend.script_file is required for the scripted backend")

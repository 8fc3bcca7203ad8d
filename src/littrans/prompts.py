"""Prompt templates and rendering.

One assembler, decoder.build_prompt, builds every PromptSpec, and one
renderer turns it into text, for both the backends (inference prompts) and
the stage-3 instruction builder (training prompts), so train and test
prompts can never drift apart.

Template placeholders are bare names, with no conversion or format spec:
the main template takes {system}, {context}, {exemplars}, {source}; entry
sub-templates take {src} and {tgt}; section sub-templates take {entries}.
Empty context/exemplar blocks render their whole section as the empty
string, so with no history and no exemplars the rendered prompt is
exactly the plain sentence-level template.

ContextEntry fills both blocks: a history entry holds an earlier sentence of
the document and its translation, an exemplar entry a retrieved source and
its target. Only the source and translation reach the text.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from string import Formatter


class TemplateError(Exception):
    """Raised when a template is missing a required placeholder, names an
    unknown one, or gives one a conversion or format spec."""


DEFAULT_SYSTEM = (
    "You are a professional literary translator. Translate faithfully and "
    "keep wording, names, and narrative voice consistent with any context "
    "provided."
)
DEFAULT_MAIN = "{system}{context}{exemplars}Translate this sentence:\n{source}\nTranslation:"
DEFAULT_SYSTEM_SECTION = "{system}\n\n"
DEFAULT_CONTEXT_SECTION = "Previous sentences and their translations:\n{entries}\n"
DEFAULT_CONTEXT_ENTRY = "{src}\n=> {tgt}\n"
DEFAULT_EXEMPLAR_SECTION = "Similarly phrased translations, for style:\n{entries}\n"
DEFAULT_EXEMPLAR_ENTRY = "{src}\n=> {tgt}\n"

_ALLOWED = {
    "main": {"system", "context", "exemplars", "source"},
    "system_section": {"system"},
    "context_section": {"entries"},
    "context_entry": {"src", "tgt"},
    "exemplar_section": {"entries"},
    "exemplar_entry": {"src", "tgt"},
}
_REQUIRED = {
    "main": {"source"},
    "system_section": {"system"},
    "context_section": {"entries"},
    "context_entry": {"tgt"},
    "exemplar_section": {"entries"},
    "exemplar_entry": {"tgt"},
}


def check_template(name: str, text: str, allowed: set[str], required: set[str]) -> None:
    """Raise TemplateError unless text is a well-formed format string whose
    placeholders are bare names that include every required one and no
    others than allowed; name is the template's name in the message.

    A conversion ({source!r}) or format spec ({source:d}) is rejected: it
    would change every prompt's text, or fail only when one is rendered.
    """
    try:
        parsed = [p for p in Formatter().parse(text) if p[1] is not None]
    except ValueError as exc:
        raise TemplateError(f"malformed template: {exc}") from exc
    for _, field_name, spec, conversion in parsed:
        if spec or conversion:
            written = field_name + (f"!{conversion}" if conversion else "")
            written += f":{spec}" if spec else ""
            raise TemplateError(
                f"{name} template placeholder {{{written}}} must be a bare name, "
                "with no conversion or format spec"
            )
    found = {field_name for _, field_name, _, _ in parsed}
    if "" in found:
        raise TemplateError("positional placeholders like {} are not allowed")
    missing = required - found
    if missing:
        raise TemplateError(
            f"{name} template is missing required placeholder {{{missing.pop()}}}"
        )
    unknown = found - allowed
    if unknown:
        raise TemplateError(f"{name} template uses unknown placeholder {{{unknown.pop()}}}")


@dataclass(frozen=True)
class PromptTemplate:
    main: str = DEFAULT_MAIN
    system: str = DEFAULT_SYSTEM
    system_section: str = DEFAULT_SYSTEM_SECTION
    context_section: str = DEFAULT_CONTEXT_SECTION
    context_entry: str = DEFAULT_CONTEXT_ENTRY
    exemplar_section: str = DEFAULT_EXEMPLAR_SECTION
    exemplar_entry: str = DEFAULT_EXEMPLAR_ENTRY

    def __post_init__(self):
        for f in fields(self):
            if f.name != "system":
                check_template(
                    f.name, getattr(self, f.name), _ALLOWED[f.name], _REQUIRED[f.name]
                )


@dataclass(frozen=True)
class ContextEntry:
    seg_index: int
    source: str
    translation: str


@dataclass(frozen=True)
class PromptSpec:
    system_text: str
    context_block: tuple[ContextEntry, ...]
    exemplar_block: tuple[ContextEntry, ...]
    current_source: str


def _section(block: tuple[ContextEntry, ...], section: str, entry: str) -> str:
    """A block's section: its entries rendered into the section template,
    or the empty string for an empty block."""
    if not block:
        return ""
    entries = "".join(entry.format(src=e.source, tgt=e.translation) for e in block)
    return section.format(entries=entries)


def render(spec: PromptSpec, template: PromptTemplate) -> str:
    """Deterministically render a PromptSpec to the prompt text."""
    system = template.system_section.format(system=spec.system_text) if spec.system_text else ""
    return template.main.format(
        system=system,
        context=_section(spec.context_block, template.context_section, template.context_entry),
        exemplars=_section(
            spec.exemplar_block, template.exemplar_section, template.exemplar_entry
        ),
        source=spec.current_source,
    )


def prompt_hash(spec: PromptSpec, template: PromptTemplate) -> str:
    """SHA-256 of the rendered prompt, the one definition of a prompt's hash.

    The decoder does not call it: a translate run renders only what the
    backend renders. The golden-trace test hashes the prompts its backend
    receives; a trace writer would hash only the traces it writes.
    hashlib (OpenSSL) loads at the first hash, so only a caller maps it.
    """
    import hashlib

    return hashlib.sha256(render(spec, template).encode("utf-8")).hexdigest()

from dataclasses import replace

import pytest

from littrans.prompts import (
    ContextEntry,
    PromptSpec,
    PromptTemplate,
    TemplateError,
    prompt_hash,
    render,
)


def spec_with(context=(), exemplars=(), source="src", system="SYS"):
    return PromptSpec(
        system_text=system,
        context_block=tuple(context),
        exemplar_block=tuple(exemplars),
        current_source=source,
    )


def test_empty_blocks_render_plain_template():
    template = PromptTemplate()
    rendered = render(spec_with(system=template.system), template)
    plain = template.main.format(
        system=template.system_section.format(system=template.system),
        context="",
        exemplars="",
        source="src",
    )
    assert rendered == plain
    assert "Previous sentences" not in rendered
    assert "Similarly phrased" not in rendered


def test_context_and_exemplar_sections():
    template = PromptTemplate()
    rendered = render(
        spec_with(
            context=[ContextEntry(0, "s0", "h0"), ContextEntry(1, "s1", "h1")],
            exemplars=[ContextEntry(0, "es", "et")],
        ),
        template,
    )
    assert "s0\n=> h0\n" in rendered
    assert "s1\n=> h1\n" in rendered
    assert rendered.index("s0") < rendered.index("s1")
    assert "es\n=> et\n" in rendered


def test_render_without_system():
    template = PromptTemplate()
    rendered = render(replace(spec_with(), system_text=""), template)
    assert not rendered.startswith("SYS")
    assert render(spec_with(), template).startswith("SYS")


def test_empty_system_text_renders_nothing():
    rendered = render(spec_with(system=""), PromptTemplate())
    assert rendered.startswith("Translate this sentence:")


def test_template_requires_source():
    with pytest.raises(TemplateError, match="source"):
        PromptTemplate(main="{system}{context}{exemplars} no source here")


def test_template_rejects_unknown_placeholder():
    with pytest.raises(TemplateError, match="unknown"):
        PromptTemplate(main="{source}{reference}")
    with pytest.raises(TemplateError, match="unknown"):
        PromptTemplate(context_entry="{tgt}{oops}")


# a conversion quotes or reformats every prompt; a format spec may fail only
# when a prompt is rendered
NOT_BARE = ["{source!r}", "{source:>12}", "{source:d}", "{source:{system}}"]


@pytest.mark.parametrize("placeholder", NOT_BARE)
def test_template_placeholders_are_bare_names(placeholder):
    with pytest.raises(TemplateError, match=r"^main template .* must be a bare name"):
        PromptTemplate(main="{system}{context}{exemplars}" + placeholder)


@pytest.mark.parametrize("main", ["{source", "{source}}", "}{source}"])
def test_malformed_template_is_rejected(main):
    with pytest.raises(TemplateError, match="^malformed template: "):
        PromptTemplate(main=main)


def test_positional_placeholder_is_rejected():
    with pytest.raises(TemplateError, match=r"^positional placeholders like \{\} are not allowed"):
        PromptTemplate(main="{source}{}")


def test_entry_templates_require_tgt():
    with pytest.raises(TemplateError, match="tgt"):
        PromptTemplate(context_entry="{src} only")
    # omitting sources is allowed
    PromptTemplate(context_entry="{tgt}\n")


def test_prompt_hash_stable_and_sensitive():
    template = PromptTemplate()
    a = prompt_hash(spec_with(source="one"), template)
    assert a == prompt_hash(spec_with(source="one"), template)
    assert a != prompt_hash(spec_with(source="two"), template)

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littrans import stages
from littrans.backend import TableBackend
from littrans.corpus import CorpusFormatError, _text
from littrans.decoder import DecodingConfig, translate_document
from littrans.prompts import PromptTemplate, TemplateError
from littrans.retrieval import build_index, pool_from_pairs, top_k
from littrans.stages import (
    InstructionTemplate,
    InterlinearDocument,
    build_sentence_instructions,
    build_stage1_paragraphs,
    build_stage2_documents,
    build_stage3_instructions,
    format_interlinear,
    parse_interlinear,
    write_interlinear_file,
)
from littrans.tokenization import cjk_ratio, count_tokens
from util import (
    CapturingBackend,
    make_corpus,
    make_document,
    naive_stage1_paragraphs,
    naive_stage2_documents,
)


def word_counter(text):
    return len(text.split())


def doc_of_counts(doc_id, counts, word="w"):
    # sentence i has counts[i] tokens under word_counter
    return make_document(doc_id, [" ".join([f"{word}{i}"] * c) for i, c in enumerate(counts)])


# --- stage 1 ---

def test_stage1_single_sentence():
    corpus = make_corpus([make_document("a", ["hello world"])])
    units = build_stage1_paragraphs(corpus, budget=10, tokenizer=word_counter)
    assert len(units) == 1
    assert units[0].text == "hello world"
    assert units[0].token_count == 2
    assert not units[0].over_budget


def test_stage1_greedy_packing():
    # oracle: hand-run greedy packing of [4,4,4] under budget 8 -> [0,1], [2]
    corpus = make_corpus([doc_of_counts("a", [4, 4, 4])])
    units = build_stage1_paragraphs(corpus, budget=8, tokenizer=word_counter)
    assert [u.token_count for u in units] == [8, 4]
    assert units[0].text == "w0 w0 w0 w0 w1 w1 w1 w1"


def test_stage1_never_packs_across_chapters():
    doc = make_document("a", ["one", "two"], chapter_breaks={1})
    corpus = make_corpus([doc])
    units = build_stage1_paragraphs(corpus, budget=1000, tokenizer=word_counter)
    assert len(units) == 2
    assert [u.chapter_id for u in units] == ["c0", "c1"]


def test_stage1_oversized_sentence_flagged():
    corpus = make_corpus([doc_of_counts("a", [2, 9, 2])])
    units = build_stage1_paragraphs(corpus, budget=4, tokenizer=word_counter)
    assert [u.token_count for u in units] == [2, 9, 2]
    assert [u.over_budget for u in units] == [False, True, False]


def test_stage1_empty_corpus():
    assert build_stage1_paragraphs(make_corpus([])) == []


def test_stage1_side_target():
    corpus = make_corpus([make_document("a", [("s", "t one"), ("s2", "t two")])])
    units = build_stage1_paragraphs(corpus, side="target", budget=100, tokenizer=word_counter)
    assert units[0].text == "t one t two"
    mono = make_corpus([make_document("a", ["s"])])
    with pytest.raises(ValueError, match="parallel"):
        build_stage1_paragraphs(mono, side="target")


def test_stage1_cjk_joiner_auto():
    corpus = make_corpus([make_document("a", ["山风吹过", "高原之上"])])
    units = build_stage1_paragraphs(corpus, budget=100)
    assert units[0].text == "山风吹过高原之上"
    assert units[0].token_count == count_tokens(units[0].text) == 8


def test_stage1_chapter_exactly_half_cjk_joins_with_a_space():
    # "predominantly CJK" means more than half of the non-space characters
    corpus = make_corpus([make_document("a", ["山风", "a b"])])
    assert cjk_ratio("山风" + "a b") == 0.5
    assert build_stage1_paragraphs(corpus, budget=100)[0].text == "山风 a b"


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=20),
    st.integers(1, 25),
    st.sets(st.integers(1, 19), max_size=3),
)
def test_stage1_partition_property(counts, budget, breaks):
    # packed units partition the chapter: no loss, duplication, or
    # cross-chapter units; unflagged units respect the budget
    doc = make_document(
        "a",
        [" ".join([f"s{i}"] * c) for i, c in enumerate(counts)],
        chapter_breaks={b for b in breaks if b < len(counts)},
    )
    corpus = make_corpus([doc])
    units = build_stage1_paragraphs(corpus, budget=budget, tokenizer=word_counter)
    for chapter in doc.chapters:
        chapter_units = [u for u in units if u.chapter_id == chapter.chapter_id]
        rebuilt = " ".join(u.text for u in chapter_units)
        assert rebuilt == " ".join(p.source for p in chapter.pairs)
    for u in units:
        assert u.token_count == word_counter(u.text)
        if not u.over_budget:
            assert u.token_count <= budget
        else:
            assert u.token_count > budget


# texts mixing CJK characters, Latin and digit runs, CJK punctuation and
# spaces, so that tokens merge across some joins and not across others
mixed_texts = st.lists(
    st.sampled_from(["山", "风", "の", "abc", "Z", "42", "x1", "。", "“", "”", "，", " ", "  "]),
    min_size=1,
    max_size=8,
).map("".join)
joiners = st.sampled_from([None, "", " ", "\n", "——", "x"])
tokenizers = st.sampled_from([count_tokens, word_counter])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(mixed_texts, mixed_texts), min_size=1, max_size=12),
    st.sets(st.integers(1, 11), max_size=3),
    st.integers(1, 30),
    joiners,
    st.sampled_from(["source", "target"]),
    tokenizers,
)
def test_stage1_priced_units_equal_the_naive_packer(pairs, breaks, budget, joiner, side, tokenizer):
    # oracle: the packer that re-tokenizes each candidate paragraph in full
    corpus = make_corpus([
        make_document("a", pairs, chapter_breaks=breaks),
        make_document("b", pairs[::-1]),
    ])
    units = build_stage1_paragraphs(corpus, side, budget, tokenizer, joiner)
    assert units == naive_stage1_paragraphs(corpus, side, budget, tokenizer, joiner)
    assert all(u.token_count == tokenizer(u.text) for u in units)


def test_stage1_tokenizes_each_sentence_a_fixed_number_of_times():
    # one unit of n sentences: the calls per sentence and the longest text
    # tokenized do not grow with n
    def calls_for(n):
        calls = []

        def counting(text):
            calls.append(text)
            return count_tokens(text)

        sentences = [f"word{i} 山风。" for i in range(n)]
        units = build_stage1_paragraphs(
            make_corpus([make_document("a", sentences)]), budget=10**6, tokenizer=counting
        )
        assert len(units) == 1
        assert max(map(len, calls)) <= max(map(len, sentences)) + len(" ") + 1
        return len(calls)

    assert calls_for(100) == 10 * calls_for(10)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.tuples(mixed_texts, mixed_texts), min_size=1, max_size=8), max_size=3),
    st.integers(1, 30),
    tokenizers,
)
def test_stage2_documents_equal_the_naive_packer(docs, budget, tokenizer):
    corpus = make_corpus([make_document(f"d{i}", pairs) for i, pairs in enumerate(docs)])
    expected = naive_stage2_documents(corpus, budget, tokenizer)
    assert build_stage2_documents(corpus, budget, tokenizer) == expected


# --- interlinear format ---

def test_format_single_pair():
    doc = InterlinearDocument("d", (("s", "t"),))
    assert format_interlinear(doc) == "<src> s\n<tgt> t\n"


def test_format_empty_doc():
    assert format_interlinear(InterlinearDocument("d", ())) == ""


def test_format_two_pairs_alternates():
    # oracle: manual rendering
    doc = InterlinearDocument("d", (("s1", "t1"), ("s2", "t2")))
    assert format_interlinear(doc) == "<src> s1\n<tgt> t1\n<src> s2\n<tgt> t2\n"


def test_parse_round_trip_simple():
    doc = InterlinearDocument("d", (("山风", "wind"), ("高原", "plateau")))
    assert parse_interlinear(format_interlinear(doc), doc_id="d") == doc


def test_parse_consecutive_src_is_error():
    with pytest.raises(ValueError, match="line 2"):
        parse_interlinear("<src> a\n<src> b\n")


def test_parse_target_before_source():
    with pytest.raises(ValueError, match="before"):
        parse_interlinear("<tgt> t\n")


def test_parse_trailing_source():
    with pytest.raises(ValueError, match="trailing"):
        parse_interlinear("<src> a\n<tgt> b\n<src> c\n")


def test_parse_blank_line_inside_a_document():
    # a blank line separates documents in the file, never pairs in one
    with pytest.raises(ValueError, match="line 3: blank line inside a document"):
        parse_interlinear("<src> a\n<tgt> b\n\n<src> c\n<tgt> d\n")


def test_parse_unknown_tag():
    with pytest.raises(ValueError, match="unknown tag"):
        parse_interlinear("<other> a\n")


def loaded_text(raw):
    """raw as the corpus loaders store it, or None if they reject it."""
    try:
        return _text(1, "source", raw)
    except CorpusFormatError:
        return None


# any text a corpus loader accepts, and so any text stage 2 can be given
line_texts = st.text(min_size=1, max_size=20).map(loaded_text).filter(lambda t: t is not None)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(line_texts, line_texts), max_size=8), st.text(max_size=5))
def test_interlinear_round_trip_property(pairs, doc_id):
    doc = InterlinearDocument(doc_id, tuple(pairs))
    assert parse_interlinear(format_interlinear(doc), doc_id=doc_id) == doc


def test_interlinear_file_round_trip(tmp_path):
    docs = [
        InterlinearDocument("doc0000", (("a", "b"),)),
        InterlinearDocument("doc0001", (("c", "d"), ("e", "f"))),
    ]
    path = tmp_path / "interlinear.txt"
    write_interlinear_file(docs, path)
    content = path.read_text(encoding="utf-8")
    assert content == "<src> a\n<tgt> b\n\n<src> c\n<tgt> d\n<src> e\n<tgt> f\n"
    blocks = content.split("\n\n")
    assert [parse_interlinear(b, doc_id=d.doc_id) for b, d in zip(blocks, docs, strict=True)] == docs


# --- stage 2 ---

def parallel_doc_of_counts(doc_id, pair_counts):
    # pair i: source and target each pair_counts[i][x] tokens
    sentences = [
        (" ".join([f"s{i}"] * s), " ".join([f"t{i}"] * t))
        for i, (s, t) in enumerate(pair_counts)
    ]
    return make_document(doc_id, sentences)


def test_stage2_single_pair():
    corpus = make_corpus([make_document("a", [("s", "t")])])
    docs = build_stage2_documents(corpus, budget=10, tokenizer=word_counter)
    assert len(docs) == 1
    assert docs[0].pairs == (("s", "t"),)


def test_stage2_greedy_packing():
    # oracle: hand-run packing of combined costs [5,5,5] under budget 10
    corpus = make_corpus([parallel_doc_of_counts("a", [(2, 3), (3, 2), (1, 4)])])
    docs = build_stage2_documents(corpus, budget=10, tokenizer=word_counter)
    assert [len(d.pairs) for d in docs] == [2, 1]
    assert [d.doc_id for d in docs] == ["a#p0", "a#p1"]


def test_stage2_requires_parallel():
    mono = make_corpus([make_document("a", ["s"])])
    with pytest.raises(ValueError, match="parallel"):
        build_stage2_documents(mono)


def test_stage2_no_cross_document_packing():
    corpus = make_corpus([
        make_document("a", [("s", "t")]),
        make_document("b", [("s", "t")]),
    ])
    docs = build_stage2_documents(corpus, budget=1000, tokenizer=word_counter)
    assert [d.doc_id for d in docs] == ["a#p0", "b#p0"]


def test_stage2_oversized_pair_flagged():
    corpus = make_corpus([parallel_doc_of_counts("a", [(6, 6)])])
    docs = build_stage2_documents(corpus, budget=10, tokenizer=word_counter)
    assert docs[0].over_budget


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=12),
       st.integers(2, 20))
def test_stage2_round_trip_and_coverage(pair_counts, budget):
    corpus = make_corpus([parallel_doc_of_counts("a", pair_counts)])
    docs = build_stage2_documents(corpus, budget=budget, tokenizer=word_counter)
    flat = [p for d in docs for p in d.pairs]
    original = [(p.source, p.target) for p in corpus.documents[0].pairs()]
    assert flat == original
    for d in docs:
        text = format_interlinear(d)
        parsed = parse_interlinear(text, doc_id=d.doc_id)
        assert parsed.pairs == d.pairs
        cost = sum(word_counter(s) + word_counter(t) for s, t in d.pairs)
        if not d.over_budget:
            assert cost <= budget


# --- instruction builders ---

def test_sentence_instructions_basic():
    corpus = make_corpus([make_document("a", [("你好", "Hello")])])
    records = build_sentence_instructions(
        corpus, InstructionTemplate("Translate: {source}")
    )
    assert len(records) == 1
    assert records[0].instruction == "Translate: 你好"
    assert records[0].input == "你好"
    assert records[0].output == "Hello"


def test_sentence_instructions_empty_corpus():
    assert build_sentence_instructions(make_corpus([])) == []


def test_sentence_instructions_order():
    corpus = make_corpus([
        make_document("a", [("s0", "t0"), ("s1", "t1"), ("s2", "t2")]),
    ])
    records = build_sentence_instructions(corpus)
    assert [r.output for r in records] == ["t0", "t1", "t2"]


def test_instruction_template_validation():
    with pytest.raises(TemplateError, match="source"):
        InstructionTemplate("Translate this.")
    with pytest.raises(TemplateError, match="unknown"):
        InstructionTemplate("Translate {source} into {target}")


@pytest.mark.parametrize(
    "placeholder", ["{source!r}", "{source:>12}", "{source:d}", "{source:{system}}"]
)
def test_instruction_placeholders_are_bare_names(placeholder):
    with pytest.raises(TemplateError, match=r"^instruction template .* must be a bare name"):
        InstructionTemplate(f"Translate: {placeholder}")


def stage3_config(n=2, k=1):
    return DecodingConfig(history_size=n, exemplar_count=k, backoff_initial=0)


def _stage3_corpus():
    return make_corpus([
        make_document("a", [("山高", "tall"), ("水长", "long"), ("山高 水长", "both")]),
    ])


def test_stage3_first_sentence_no_context_no_exemplars():
    corpus = _stage3_corpus()
    index = build_index(pool_from_pairs(corpus.documents[0].pairs()))
    records = build_stage3_instructions(corpus, stage3_config(k=0), index)
    template = PromptTemplate()
    plain = template.main.format(
        system=template.system_section.format(system=template.system),
        context="",
        exemplars="",
        source="山高",
    )
    assert records[0].instruction == plain
    assert records[0].input == ""
    assert records[0].output == "tall"


def test_stage3_second_sentence_context_is_pair_zero():
    corpus = _stage3_corpus()
    index = build_index(pool_from_pairs(corpus.documents[0].pairs()))
    records = build_stage3_instructions(corpus, stage3_config(n=1, k=0), index)
    assert "山高" in records[1].instruction
    assert "tall" in records[1].instruction  # reference target, teacher forcing
    assert "水长" in records[1].instruction  # itself, as the current source
    assert "long" not in records[1].instruction
    # n=1 window: record 2 carries exactly pair 1, not pair 0
    assert "tall" not in records[2].instruction
    assert "long" in records[2].instruction


def test_stage3_exemplars_exclude_future():
    # oracle: the candidate set for sentence 2 is exactly sentences 0-1
    corpus = _stage3_corpus()
    index = build_index(pool_from_pairs(corpus.documents[0].pairs()))
    records = build_stage3_instructions(corpus, stage3_config(n=2, k=1), index)
    last = records[2].instruction
    assert "both" not in last  # its own reference must never leak
    records_k2 = build_stage3_instructions(corpus, stage3_config(n=0, k=2), index)
    # with history off, any appearance of earlier targets comes from
    # exemplars, which may only be sentences 0 and 1
    assert "both" not in records_k2[2].instruction


def test_stage3_requires_parallel():
    mono = make_corpus([make_document("a", ["s"])])
    with pytest.raises(ValueError, match="parallel"):
        build_stage3_instructions(mono, stage3_config(), build_index([]))


def test_stage3_needs_a_pool_only_for_exemplars():
    corpus = _stage3_corpus()
    with pytest.raises(ValueError, match="needs an exemplar index when exemplar_count > 0"):
        build_stage3_instructions(corpus, stage3_config(k=1), None)
    assert len(build_stage3_instructions(corpus, stage3_config(k=0), None)) == 3


def test_stage3_context_block_only_when_preceded():
    corpus = _stage3_corpus()
    index = build_index(pool_from_pairs(corpus.documents[0].pairs()))
    records = build_stage3_instructions(corpus, stage3_config(n=3, k=0), index)
    header = "Previous sentences and their translations:"
    assert header not in records[0].instruction
    assert header in records[1].instruction
    assert header in records[2].instruction


def test_stage3_instruction_is_the_decoder_prompt():
    # train/inference identity: decoding teacher-forced on the references
    # over the same external index renders exactly the stage-3 instructions
    corpus = make_corpus([
        make_document("a", [("山高", "tall"), ("水长", "long"), ("山高 水长", "both")]),
        make_document("b", [("水长 山", "long hill"), ("高山 流水", "high water"), ("山高 流水", "tall water")]),
    ])
    pairs = [p for d in corpus.documents for p in d.pairs()]
    index = build_index(pool_from_pairs(pairs))
    config = stage3_config(n=1, k=2)
    records = build_stage3_instructions(corpus, config, index)
    capture = CapturingBackend(TableBackend({p.source: p.target for p in pairs}), config.template)
    for doc in corpus.documents:
        translate_document(doc, capture, index=index, config=config)
    assert capture.rendered == [r.instruction for r in records]
    assert any(s.context_block for s in capture.specs)
    assert any(s.exemplar_block for s in capture.specs)


# --- hooks the benchmark's tracer patches ---

def test_stage3_calls_module_top_k_once_per_pair_query_first(toy_corpus, monkeypatch):
    # the benchmark's prepare workload probes littrans.stages.top_k by its
    # first argument, so stage 3 must look it up there, once per pair
    queries = []

    def recorder(query, *args, **kwargs):
        queries.append(query)
        return top_k(query, *args, **kwargs)

    monkeypatch.setattr(stages, "top_k", recorder)
    pairs = [p for d in toy_corpus.documents for p in d.pairs()]
    index = build_index(pool_from_pairs(pairs))
    build_stage3_instructions(toy_corpus, stage3_config(k=1), index)
    assert queries == [p.source for p in pairs]


def test_packers_default_tokenizer_is_count_tokens():
    # the benchmark's tracer counts tokenizer calls by patching this default
    for build in (build_stage1_paragraphs, build_stage2_documents):
        assert inspect.signature(build).parameters["tokenizer"].default is count_tokens

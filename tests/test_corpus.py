import gc
import json
import string
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littrans.corpus import (
    Corpus,
    CorpusFormatError,
    load_line_aligned,
    load_records,
    write_jsonl,
)
from util import make_corpus, make_document


def as_records(corpus):
    """The corpus in the record format, chapter_id and target only where set."""
    for doc in corpus.documents:
        for pair in doc.pairs():
            rec = dict(vars(pair))
            if not pair.chapter_id:
                del rec["chapter_id"]
            if pair.target is None:
                del rec["target"]
            yield rec


def test_load_minimal_two_pairs(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0", "target": "t0"},
        {"doc_id": "a", "seg_index": 1, "source": "s1", "target": "t1"},
    ])
    corpus = load_records(path)
    assert len(corpus.documents) == 1
    assert [p.seg_index for p in corpus.documents[0].pairs()] == [0, 1]
    assert corpus.is_parallel


def test_duplicate_segment_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0"},
        {"doc_id": "a", "seg_index": 0, "source": "s1"},
    ])
    with pytest.raises(CorpusFormatError, match="line 2.*duplicate"):
        load_records(path)


def test_shuffled_records_restore_order(tmp_path):
    # oracle: sort records by (doc_id, seg_index) by hand
    records = [
        {"doc_id": "b", "seg_index": 1, "source": "b1", "target": "y"},
        {"doc_id": "a", "seg_index": 2, "source": "a2", "target": "y"},
        {"doc_id": "a", "seg_index": 0, "source": "a0", "target": "y"},
        {"doc_id": "b", "seg_index": 0, "source": "b0", "target": "y"},
        {"doc_id": "a", "seg_index": 1, "source": "a1", "target": "y"},
    ]
    path = tmp_path / "c.jsonl"
    write_jsonl(path, records)
    corpus = load_records(path)
    assert [d.doc_id for d in corpus.documents] == ["a", "b"]
    assert [p.source for p in corpus.documents[0].pairs()] == ["a0", "a1", "a2"]
    assert [p.source for p in corpus.documents[1].pairs()] == ["b0", "b1"]


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id": "a", "source": "s"}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_records(path)


def test_missing_source_is_error(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"doc_id": "a", "seg_index": 0}])
    with pytest.raises(CorpusFormatError, match="source"):
        load_records(path)


def test_gap_in_seg_index_is_error(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0"},
        {"doc_id": "a", "seg_index": 2, "source": "s2"},
    ])
    with pytest.raises(CorpusFormatError, match="contiguous"):
        load_records(path)


def test_mixed_targets_within_document(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0", "target": "t0"},
        {"doc_id": "a", "seg_index": 1, "source": "s1"},
    ])
    with pytest.raises(CorpusFormatError, match="mixes pairs"):
        load_records(path)


def test_mixed_targets_across_documents(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0", "target": "t0"},
        {"doc_id": "b", "seg_index": 0, "source": "s1"},
    ])
    with pytest.raises(CorpusFormatError, match=r"line 2: corpus mixes pairs .*line 1 has a target"):
        load_records(path)


def test_mixed_targets_names_first_line_that_differs_from_the_first_record(tmp_path):
    # documents load in doc_id order, but the rule follows file order
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "b", "source": "s0"},
        {"doc_id": "a", "source": "s1"},
        {"doc_id": "a", "source": "s2", "target": "t2"},
        {"doc_id": "b", "source": "s3", "target": "t3"},
    ])
    with pytest.raises(CorpusFormatError, match=r"line 3: .*line 1 has no target"):
        load_records(path)


def test_malformed_json_after_a_target_mix_is_the_error_reported(tmp_path):
    # every line is parsed before the target rule runs
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "source": "s0", "target": "t0"},
        {"doc_id": "a", "source": "s1"},
    ])
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{oops\n")
    with pytest.raises(CorpusFormatError, match=r"^line 3: invalid JSON"):
        load_records(path)


def test_target_mix_is_reported_before_a_text_error_on_an_earlier_line(tmp_path):
    # texts are checked only when a document is built, after the target rule
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "source": "   ", "target": "t0"},
        {"doc_id": "b", "source": "s1"},
    ])
    with pytest.raises(CorpusFormatError, match=r"^line 2: corpus mixes pairs"):
        load_records(path)


def _load_chapters(tmp_path, loader):
    chapters = [("chapter-one", ["s0", "s1", "s2"]), ("chapter-two", ["s3", "s4"])]
    if loader == "records":
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"doc_id": "novel", "chapter_id": chapter_id, "source": source, "target": "t"}
            for chapter_id, sources in chapters
            for source in sources
        ])
        return load_records(path)
    sources = [source for _, sources in chapters for source in sources]
    (tmp_path / "s.txt").write_text("".join(f"{s}\n" for s in sources), encoding="utf-8")
    (tmp_path / "t.txt").write_text("t\n" * len(sources), encoding="utf-8")
    return load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")


@pytest.mark.parametrize("loader", ["records", "line-aligned"])
def test_pairs_of_one_chapter_share_one_chapter_id_string(tmp_path, loader):
    (document,) = _load_chapters(tmp_path, loader).documents
    assert [len(c.pairs) for c in document.chapters] == ([3, 2] if loader == "records" else [5])
    assert len({id(p.doc_id) for p in document.pairs()}) == 1
    for chapter in document.chapters:
        assert {id(p.chapter_id) for p in chapter.pairs} == {id(chapter.chapter_id)}


def test_load_records_peaks_near_what_it_keeps(tmp_path):
    # a loader that kept each parsed record until the corpus was built
    # peaked above twice what the corpus keeps
    path = tmp_path / "c.jsonl"
    write_jsonl(path, (
        {
            "doc_id": f"doc{n // 50:03d}",
            "chapter_id": f"chapter-{n % 50 // 10}",
            "seg_index": n % 50,
            "source": f"源文第{n}句。" * 3,
            "target": f"target sentence number {n}.",
        }
        for n in range(2000)
    ))
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = load_records(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert corpus.sentence_count == 2000
    assert peak - base <= 1.6 * (kept - base)


def test_monolingual_flag(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"doc_id": "a", "seg_index": 0, "source": "s0"}])
    assert not load_records(path).is_parallel


def test_implicit_chapter_and_file_order_seg_index(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "source": "first"},
        {"doc_id": "a", "source": "second"},
    ])
    corpus = load_records(path)
    pairs = list(corpus.documents[0].pairs())
    assert [p.seg_index for p in pairs] == [0, 1]
    assert [p.source for p in pairs] == ["first", "second"]
    assert pairs[0].chapter_id == ""


def test_chapter_restart_is_error(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "chapter_id": "c1", "seg_index": 0, "source": "x"},
        {"doc_id": "a", "chapter_id": "c2", "seg_index": 1, "source": "y"},
        {"doc_id": "a", "chapter_id": "c1", "seg_index": 2, "source": "z"},
    ])
    with pytest.raises(CorpusFormatError, match="restarts"):
        load_records(path)


def test_blank_lines_are_skipped_and_lines_keep_their_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '\n{"doc_id": "a", "source": "s0"}\n \t\n{"doc_id": "a", "source": "s1"}\n\n',
        encoding="utf-8",
    )
    assert [p.source for p in load_records(path).documents[0].pairs()] == ["s0", "s1"]
    path.write_text('\n{"doc_id": "a", "source": "s0"}\n \n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 4: invalid JSON"):
        load_records(path)


@pytest.mark.parametrize("seg_index", [True, False, 0.0, "1"], ids=repr)
def test_non_integer_seg_index_is_error(tmp_path, seg_index):
    # a bool is not an integer here, so seg_index 0 and true do not load
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0"},
        {"doc_id": "a", "seg_index": seg_index, "source": "s1"},
    ])
    with pytest.raises(CorpusFormatError, match="line 2: seg_index must be an integer"):
        load_records(path)


def test_document_mixing_records_with_and_without_seg_index_is_error(tmp_path):
    # the rule is per document: b, all in file order, loads beside a
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "b", "source": "b0"},
        {"doc_id": "a", "seg_index": 0, "source": "s0"},
        {"doc_id": "a", "source": "s1"},
        {"doc_id": "a", "seg_index": 1, "source": "s2"},
    ])
    with pytest.raises(
        CorpusFormatError, match="line 3: document 'a' mixes records with and without seg_index"
    ):
        load_records(path)


@pytest.mark.parametrize("chapter_id", [0, False, [1], 1.5, {}], ids=repr)
def test_non_string_chapter_id_is_error(tmp_path, chapter_id):
    # 0 and false are not the implicit chapter, and [1] is not chapter "[1]"
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "chapter_id": "c1", "seg_index": 0, "source": "x"},
        {"doc_id": "a", "chapter_id": chapter_id, "seg_index": 1, "source": "y"},
    ])
    with pytest.raises(CorpusFormatError, match="^line 2: non-string 'chapter_id'$"):
        load_records(path)


def test_null_and_empty_chapter_id_are_the_implicit_chapter(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "chapter_id": None, "source": "x"},
        {"doc_id": "a", "chapter_id": "", "source": "y"},
        {"doc_id": "a", "source": "z"},
    ])
    (chapter,) = load_records(path).documents[0].chapters
    assert chapter.chapter_id == "" and len(chapter.pairs) == 3


def test_whitespace_only_source_is_error(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0"},
        {"doc_id": "a", "seg_index": 1, "source": "  "},
    ])
    with pytest.raises(CorpusFormatError, match="line 2: empty source"):
        load_records(path)


def test_whitespace_only_target_is_error(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "seg_index": 0, "source": "s0", "target": "t0"},
        {"doc_id": "a", "seg_index": 1, "source": "s1", "target": " "},
    ])
    with pytest.raises(CorpusFormatError, match="line 2: empty target"):
        load_records(path)


@pytest.mark.parametrize(
    "key,text,message",
    [
        ("source", "a\nb", "source text contains a line break"),
        ("target", "a\rb", "target text contains a line break"),
        ("source", "a\u2028b", "source text contains a line break"),
        ("target", "a\x85", "target text contains a line break"),
        ("target", "", "empty target text"),
        ("source", "\r\n", "empty source text"),
    ],
)
def test_record_text_line_break_or_blank_is_error(tmp_path, key, text, message):
    # every loaded text is one non-blank line, so line-oriented writers
    # (the interlinear stage 2 file) can print it as it is
    bad = {"source": "s1", "target": "t1", key: text}
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"doc_id": "a", "source": "s0", "target": "t0"},
        {"doc_id": "a", **bad},
    ])
    with pytest.raises(CorpusFormatError, match=f"line 2: {message}"):
        load_records(path)


@pytest.mark.parametrize("key,text", [("source", "\ud800x"), ("target", "a\udfff")])
def test_record_text_with_lone_surrogate_is_error(tmp_path, key, text):
    # json.dumps escapes the surrogate, so the file itself is valid UTF-8
    bad = {"doc_id": "a", "source": "s1", "target": "t1", key: text}
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"doc_id": "a", "source": "s0", "target": "t0"}) + "\n" + json.dumps(bad) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match=f"line 2: {key} text cannot be encoded as UTF-8"):
        load_records(path)


def test_record_text_trailing_line_terminators_are_trimmed(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"doc_id": "a", "source": "s0\r\n", "target": "t0\n\n"}])
    pair = next(load_records(path).documents[0].pairs())
    assert (pair.source, pair.target) == ("s0", "t0")


# --- line-aligned loader ---

def test_line_aligned_basic(tmp_path):
    (tmp_path / "s.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\ny\nz\n", encoding="utf-8")
    corpus = load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")
    assert len(corpus.documents) == 1
    assert [(p.source, p.target) for p in corpus.documents[0].pairs()] == [
        ("a", "x"), ("b", "y"), ("c", "z")
    ]


def test_line_aligned_count_mismatch(tmp_path):
    (tmp_path / "s.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="3.*2"):
        load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")


def test_line_aligned_boundary_split(tmp_path):
    # oracle: manual split -> docs of 2 and 3 lines
    (tmp_path / "s.txt").write_text("a\nb\n\nc\nd\ne\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("1\n2\n\n3\n4\n5\n", encoding="utf-8")
    corpus = load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")
    assert [d.sentence_count for d in corpus.documents] == [2, 3]


def test_line_aligned_boundary_mismatch(tmp_path):
    (tmp_path / "s.txt").write_text("a\n\nb\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("1\n2\n3\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")


@pytest.mark.parametrize("with_target", [True, False])
def test_line_aligned_whitespace_only_source_is_error(tmp_path, with_target):
    (tmp_path / "s.txt").write_text("a\n \nb\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\ny\nz\n", encoding="utf-8")
    tgt = tmp_path / "t.txt" if with_target else None
    with pytest.raises(CorpusFormatError, match="line 2: empty source"):
        load_line_aligned(tmp_path / "s.txt", tgt)


def test_line_aligned_whitespace_only_target_is_error(tmp_path):
    (tmp_path / "s.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x\n \nz\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2: empty target"):
        load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")


@pytest.mark.parametrize("side", ["source", "target"])
def test_line_aligned_unicode_line_separator_is_error(tmp_path, side):
    # U+2028 does not end a line when the file is read, but str.splitlines()
    # splits on it, so it would break a line-oriented output
    source = "a\nb\u2028b\nc\n" if side == "source" else "a\nb\nc\n"
    target = "x\ny\u2028y\nz\n" if side == "target" else "x\ny\nz\n"
    (tmp_path / "s.txt").write_text(source, encoding="utf-8")
    (tmp_path / "t.txt").write_text(target, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"line 2: {side} text contains a line break"):
        load_line_aligned(tmp_path / "s.txt", tmp_path / "t.txt")


def test_line_aligned_document_ids_count_from_zero(tmp_path):
    # leading, repeated and trailing boundaries start no document
    (tmp_path / "s.txt").write_text("\na\n\n\nb\nc\n\nd\n\n", encoding="utf-8")
    corpus = load_line_aligned(tmp_path / "s.txt", None)
    assert [(d.doc_id, [p.source for p in d.pairs()]) for d in corpus.documents] == [
        ("doc0000", ["a"]), ("doc0001", ["b", "c"]), ("doc0002", ["d"])
    ]


def test_line_aligned_monolingual(tmp_path):
    (tmp_path / "s.txt").write_text("a\nb\n", encoding="utf-8")
    assert not load_line_aligned(tmp_path / "s.txt", None).is_parallel


# --- round trip and permutation properties ---

doc_ids = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
texts = st.text(
    alphabet=string.ascii_letters + " .,!?中文山水",
    min_size=1,
    max_size=30,
).filter(lambda s: s.strip() and s == s.rstrip("\r\n"))


@st.composite
def corpora(draw, parallel=True):
    n_docs = draw(st.integers(1, 4))
    ids = draw(st.lists(doc_ids, min_size=n_docs, max_size=n_docs, unique=True))
    docs = []
    for doc_id in sorted(ids):
        n = draw(st.integers(1, 6))
        sentences = []
        for _ in range(n):
            source = draw(texts)
            sentences.append((source, draw(texts)) if parallel else source)
        breaks = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=2))
        docs.append(make_document(doc_id, sentences, chapter_breaks=breaks))
    return make_corpus(docs)


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(lambda parallel: corpora(parallel=parallel)))
def test_record_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    write_jsonl(path, as_records(corpus))
    loaded = load_records(path)
    assert loaded.documents == corpus.documents
    assert loaded.is_parallel == corpus.is_parallel


@settings(max_examples=40, deadline=None)
@given(corpora(), st.randoms(use_true_random=False))
def test_load_is_permutation_insensitive(tmp_path_factory, corpus, rng):
    base = tmp_path_factory.mktemp("perm")
    path1, path2 = base / "a.jsonl", base / "b.jsonl"
    write_jsonl(path1, as_records(corpus))
    lines = path1.read_text(encoding="utf-8").splitlines()
    rng.shuffle(lines)
    path2.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert load_records(path1).documents == load_records(path2).documents


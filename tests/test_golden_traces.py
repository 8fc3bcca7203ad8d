"""Golden prompt hashes and exemplar ids for incremental decoding.

The golden hypotheses.jsonl comes from a scripted backend keyed by source,
so it cannot see which exemplars a prompt carries. This file pins, for
every sentence of a seeded corpus, the sha256 of the rendered prompt and
the exemplar ids, with exemplars from the document's own prefix and from
an external index, at keyword_count 1 and 5. The vocabulary is small, so
terms repeat and tied scores are common.

Rewrite the golden file (only when a change of output is intended) with
    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from littrans.backend import BackendCapabilities, TranslationBackend
from littrans.decoder import DecodingConfig, translate_document
from littrans.prompts import prompt_hash
from littrans.retrieval import build_index

sys.path.insert(0, str(Path(__file__).parent))
from util import make_document, random_words  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden" / "traces.jsonl"
VOCAB = ["stone", "river", "Moon", "wind", "山", "水", "。"]


class ReversingBackend(TranslationBackend):
    """Answers with the source's words in reverse order, so a hypothesis
    differs from its source, and records every prompt it receives."""

    capabilities = BackendCapabilities(name="reversing")

    def __init__(self):
        self.prompts = []

    def translate(self, prompt):
        self.prompts.append(prompt)
        return " ".join(reversed(prompt.current_source.split()))


def corpus_documents():
    rng = random.Random(20240611)
    return [
        make_document(doc_id, [random_words(rng, VOCAB, 1, 6) for _ in range(length)])
        for doc_id, length in (("d0", 14), ("d1", 22), ("d2", 9))
    ]


def external_index(keyword_count):
    # "d1" also names a corpus document, so the no-future rule applies to
    # part of the external pool
    rng = random.Random(77)
    pool = [
        (random_words(rng, VOCAB, 1, 6), f"t{doc_id}{i}", doc_id, i)
        for doc_id in ("p0", "d1")
        for i in range(15)
    ]
    return build_index(pool, keyword_count)


def trace_records():
    records = []
    for keyword_count in (1, 5):
        config = DecodingConfig(
            history_size=2, exemplar_count=2, keyword_count=keyword_count, backoff_initial=0
        )
        for pool, index in (("document", None), ("external", external_index(keyword_count))):
            for doc in corpus_documents():
                backend = ReversingBackend()
                result = translate_document(doc, backend, index, config)
                # the backend answers at the first attempt: one prompt per trace
                assert len(backend.prompts) == len(result.traces)
                for trace, spec in zip(result.traces, backend.prompts):
                    records.append(
                        {
                            "pool": pool,
                            "keyword_count": keyword_count,
                            "doc_id": doc.doc_id,
                            "seg_index": trace.seg_index,
                            "prompt_sha256": prompt_hash(spec, config.template),
                            "exemplar_ids": list(trace.exemplar_ids),
                        }
                    )
    return records


def test_prompt_hashes_and_exemplar_ids_match_golden():
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert trace_records() == golden


if __name__ == "__main__":
    GOLDEN.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in trace_records()),
        encoding="utf-8",
    )

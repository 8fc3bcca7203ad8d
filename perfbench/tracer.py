"""Spans around calls into littrans, recorded from outside the package.

instrument() replaces public functions at the module attributes where
their callers look them up (``littrans.decoder.top_k``,
``littrans.retrieval.terms``, ``littrans.backend.render``, the backend
classes' ``translate``, and default arguments such as the stage
builders' ``count_tokens`` and the decoder's ``sleep``) with wrappers that
time each call. A span holds name, start, end and the span that caused
it; spans stay in memory until write(). Calls made hundreds of thousands
of times per round (term splitting, similarity, BLEU tokenizing) are kept
as per-name totals instead of one span each. Self time is a call's
duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time

# (module, class or "", attribute, span name, kept as spans)
TARGETS = [
    ("littrans.cli", "", "cmd_prepare", "cli.cmd_prepare", True),
    ("littrans.cli", "", "cmd_translate", "cli.cmd_translate", True),
    ("littrans.cli", "", "cmd_evaluate", "cli.cmd_evaluate", True),
    ("littrans.cli", "", "read_hypotheses", "cli.read_hypotheses", True),
    ("littrans.cli", "", "load_config", "config.load_config", True),
    ("littrans.corpus", "", "load_records", "corpus.load_records", True),
    ("littrans.corpus", "", "load_line_aligned", "corpus.load_records", True),
    ("littrans.retrieval", "", "terms", "tokenization.terms", False),
    ("littrans.decoder", "", "top_k", "retrieval.top_k", True),
    ("littrans.stages", "", "top_k", "retrieval.top_k", True),
    ("littrans.retrieval", "", "similarity", "retrieval.similarity", False),
    ("littrans.retrieval", "", "build_index", "retrieval.build_index", True),
    ("littrans.cli", "", "build_index", "retrieval.build_index", True),
    ("littrans.prompts", "", "render", "prompts.render", True),
    ("littrans.backend", "", "render", "prompts.render", True),
    ("littrans.stages", "", "render", "prompts.render", True),
    ("littrans.decoder", "", "render", "prompts.render", True),
    ("littrans.backend", "ScriptedBackend", "translate", "backend.translate", True),
    ("littrans.backend", "HttpBackend", "translate", "backend.translate", True),
    ("littrans.decoder", "", "run_corpus", "decoder.run_corpus", True),
    ("littrans.decoder", "", "translate_document", "decoder.translate_document", True),
    ("littrans.decoder", "", "clean_hypothesis", "decoder.clean_hypothesis", True),
    ("littrans.stages", "", "build_stage1_paragraphs", "stages.stage1", True),
    ("littrans.stages", "", "build_stage2_documents", "stages.stage2", True),
    ("littrans.stages", "", "build_sentence_instructions", "stages.baseline", True),
    ("littrans.stages", "", "build_stage3_instructions", "stages.stage3", True),
    ("littrans.metrics", "", "tokenize", "metrics.tokenize", False),
    ("littrans.metrics", "", "s_bleu", "metrics.s_bleu", True),
    ("littrans.metrics", "", "d_bleu", "metrics.d_bleu", True),
]

# (module, function whose default arguments hold the callee, callee module,
# callee attribute, span name, kept as spans)
DEFAULT_TARGETS = [
    ("littrans.stages", "build_stage1_paragraphs", "littrans.tokenization", "count_tokens",
     "tokenization.count_tokens", False),
    ("littrans.stages", "build_stage2_documents", "littrans.tokenization", "count_tokens",
     "tokenization.count_tokens", False),
    ("littrans.decoder", "run_corpus", "time", "sleep", "decoder.backoff_sleep", True),
    ("littrans.decoder", "translate_document", "time", "sleep", "decoder.backoff_sleep", True),
]


def _observe_top_k(counters, args, result):
    counters["pool_size"] = counters.get("pool_size", 0) + len(args[1].exemplars)


def _observe_similarity(counters, args, result):
    if result.combined > 0.0:
        counters["nonzero"] = counters.get("nonzero", 0) + 1


def _observe_render(counters, args, result):
    counters["prompt_chars"] = counters.get("prompt_chars", 0) + len(result)


OBSERVERS = {
    "retrieval.top_k": _observe_top_k,
    "retrieval.similarity": _observe_similarity,
    "prompts.render": _observe_render,
}


class _ThreadState:
    def __init__(self):
        self.stack: list[list[int]] = []  # [child time ns, span id]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.thread = threading.get_ident()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._undo: list = []
        self.t0 = time.perf_counter_ns()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append(st)
        return st

    def wrap(self, name: str, fn, keep: bool):
        state, ids, clock = self._state, self._ids, time.perf_counter_ns
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0, next(ids) if keep else 0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if keep:
                    st.spans.append((frame[1], name, start, end, parent, st.thread))
            if observe is not None:
                observe(st.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, keep: bool) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, keep))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_default(self, func, original, name: str, keep: bool) -> None:
        defaults = func.__defaults__ or ()
        if not any(d is original for d in defaults):
            return
        traced = self.wrap(name, original, keep)
        func.__defaults__ = tuple(traced if d is original else d for d in defaults)
        self._undo.append(lambda: setattr(func, "__defaults__", defaults))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def stats(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for st in self._states:
            for name, (calls, total, own) in st.stats.items():
                agg = out.setdefault(name, [0, 0, 0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return out

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for st in self._states:
            for k, v in st.counters.items():
                out[k] = out.get(k, 0) + v
        return out

    def spans(self) -> list[tuple]:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s[2])

    def write(self, path) -> None:
        """Spans as JSON lines (ms from the tracer's start), then one
        totals line per name kept only as totals."""
        spans = self.spans()
        kept = {s[1] for s in spans}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "thread": thread,
                    "start_ms": (start - self.t0) / 1e6, "end_ms": (end - self.t0) / 1e6,
                }) + "\n")
            for name, (calls, total, own) in sorted(self.stats().items()):
                if name not in kept:
                    fh.write(json.dumps({
                        "name": name, "calls": calls,
                        "total_ms": total / 1e6, "self_ms": own / 1e6,
                    }) + "\n")


def instrument(tracer: Tracer) -> None:
    # defaults first: patching a module attribute hides the function
    for module, func, callee_module, callee, name, keep in DEFAULT_TARGETS:
        fn = getattr(importlib.import_module(module), func, None)
        original = getattr(importlib.import_module(callee_module), callee)
        if fn is not None:
            tracer.patch_default(fn, original, name, keep)
    for module, cls, attr, name, keep in TARGETS:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is not None and attr in vars(owner):
            tracer.patch(owner, attr, name, keep)


def unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("_calls") or name in ("backend.attempts", "retrieval.pool_size_mean"):
        return "count"
    if name == "prompts.prompt_chars_mean":
        return "chars"
    return "ratio"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _p(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer: Tracer, sentences: int) -> dict[str, float]:
    """Per-layer numbers of one traced round of `sentences` sentences."""
    stats, counters, spans = tracer.stats(), tracer.counters(), tracer.spans()

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def ms(name):
        return stats.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(name):
        return stats.get(name, [0, 0, 0])[2] / 1e6

    # what a command does after its last call into another layer is
    # formatting and writing its outputs
    last_child_end: dict[int, int] = {}
    for sid, _name, _start, end, parent, _thread in spans:
        last_child_end[parent] = max(last_child_end.get(parent, 0), end)
    write_ns = sum(
        end - last_child_end.get(sid, start)
        for sid, name, start, end, _parent, _thread in spans
        if name.startswith("cli.cmd_")
    )
    backend_ms = [(e - s) / 1e6 for _i, n, s, e, _p_, _t in spans if n == "backend.translate"]
    attempts = calls("backend.translate")
    renders = calls("prompts.render")
    return {
        "config.load_ms": ms("config.load_config"),
        "corpus.load_ms": ms("corpus.load_records"),
        "tokenization.terms_calls": calls("tokenization.terms"),
        "tokenization.terms_ms": ms("tokenization.terms"),
        "tokenization.count_tokens_calls": calls("tokenization.count_tokens"),
        "tokenization.count_tokens_ms": ms("tokenization.count_tokens"),
        "retrieval.top_k_calls": calls("retrieval.top_k"),
        "retrieval.top_k_ms": ms("retrieval.top_k"),
        "retrieval.similarity_calls": calls("retrieval.similarity"),
        "retrieval.build_index_calls": calls("retrieval.build_index"),
        "retrieval.build_index_ms": ms("retrieval.build_index"),
        "retrieval.pool_size_mean": _ratio(counters.get("pool_size", 0), calls("retrieval.top_k")),
        "retrieval.nonzero_share": _ratio(counters.get("nonzero", 0), calls("retrieval.similarity")),
        "prompts.render_calls": renders,
        "prompts.renders_per_attempt": _ratio(renders, attempts),
        "prompts.renders_per_sentence": _ratio(renders, sentences),
        "prompts.render_ms": ms("prompts.render"),
        "prompts.prompt_chars_mean": _ratio(counters.get("prompt_chars", 0), renders),
        "backend.attempts": attempts,
        "backend.useful_ratio": _ratio(sentences, attempts),
        "backend.call_ms_p50": _p(backend_ms, 50),
        "backend.call_ms_p95": _p(backend_ms, 95),
        "backend.call_ms_total": sum(backend_ms),
        "decoder.translate_document_ms": ms("decoder.translate_document"),
        "decoder.self_ms": self_ms("decoder.translate_document"),
        "decoder.clean_hypothesis_ms": ms("decoder.clean_hypothesis"),
        "decoder.backoff_wait_ms": ms("decoder.backoff_sleep"),
        "stages.stage1_ms": ms("stages.stage1"),
        "stages.stage2_ms": ms("stages.stage2"),
        "stages.baseline_ms": ms("stages.baseline"),
        "stages.stage3_ms": ms("stages.stage3"),
        "metrics.tokenize_calls": calls("metrics.tokenize"),
        "metrics.tokenize_ms": ms("metrics.tokenize"),
        "metrics.s_bleu_ms": ms("metrics.s_bleu"),
        "metrics.d_bleu_ms": ms("metrics.d_bleu"),
        "cli.write_ms": write_ns / 1e6,
    }

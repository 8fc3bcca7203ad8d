#!/usr/bin/env python3
"""One-operator mutation gate: does any change to a module slip past its tests?

Inside the function bodies of one module, each mutant makes one change:
it swaps < and <=, > and >=, == and !=, + and -, * and /, or `and` and
`or`, or adds 1 to a numeric constant. Each mutant is written into a
private copy of src/, tests/ and data/ and runs against the given test
files with -x, JOBS mutants at once. A mutant the tests pass is a
survivor: either a test gap or code that changes no output. The unmutated
module, written the same way, must pass first. Each mutant is labelled
with its line, its enclosing Class.function and its change, for example
`stages.py:255: build_stage3_instructions: Gt -> GtE`.

    python scripts/mutants.py src/littrans/retrieval.py tests/test_retrieval.py

Survivors are compared with EQUIVALENT below, the triaged mutants that
change no output, as multisets of (function, change) without line
numbers. Exit code: 0 when every survivor is listed and every listed
mutant survives; 1 when a mutant times out, a survivor is not listed, a
listed mutant is killed (or survives fewer times than listed), or the
tests fail on the unmutated module; 2 on a usage error. CI runs it on
each of the ten modules under src/littrans/. It takes minutes (each
mutant is a pytest run). Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
JOBS = 2
TIMEOUT_S = 300.0
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}

# (module, function, change, why the mutant changes no output)
EQUIVALENT = [
    ("metrics", "corpus_bleu", "Lt -> LtE",
     "clipping takes min(count, ref_count), which is the same at equality"),
    ("metrics", "corpus_bleu", "GtE -> Gt",
     "the brevity penalty is exp(0) = 1 when hyp_len equals ref_len"),
    ("retrieval", "ExemplarIndex._bounds", "Gt -> GtE",
     "both branches give S0 when the squared norm equals S0"),
    ("retrieval", "top_k", "Lt -> LtE",
     "a bound equal to the k-th best score less the margin lies below that "
     "score, so the exemplar it skips can neither enter nor tie"),
    ("decoder", "translate_document", "Gt -> GtE",
     "top_k returns [] at k 0; the guard stays for perfbench's tracer"),
    ("stages", "build_stage3_instructions", "Gt -> GtE",
     "top_k returns [] at k 0; the guard stays for perfbench's tracer"),
    ("prompts", "check_template", "1 -> 2",
     "a literal-only segment has None at both indexes"),
    ("backend", "_RateLimiter.__init__", "0.0 -> 1.0",
     "any monotonic clock reading is past 1 s, so the first call never waits"),
    ("backend", "_RateLimiter.wait", "Gt -> GtE",
     "it only adds a sleep(0)"),
]


def sites(tree: ast.Module) -> list[tuple[ast.AST, int | None, str]]:
    """(node, index of the operator in a comparison or None, enclosing
    Class.function), in a fixed order, for every mutable spot inside an
    outermost function body."""
    found = []

    def visit(node: ast.AST, function: str | None, prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            for stmt in node.body:
                visit(stmt, prefix + node.name, prefix)
            return
        if isinstance(node, ast.ClassDef) and function is None:
            prefix += node.name + "."
        if function is not None:
            if isinstance(node, ast.Compare):
                found.extend(
                    (node, i, function) for i, op in enumerate(node.ops) if type(op) in SWAPS
                )
            elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
                found.append((node, None, function))
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                found.append((node, None, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function, prefix)

    visit(tree, None, "")
    return found


def mutate(source: str, number: int) -> tuple[str, int, str]:
    """The module with its number-th site changed, the site's line, and a
    "function: change" label for it."""
    tree = ast.parse(source)
    node, i, function = sites(tree)[number]
    if i is not None:
        old = node.ops[i]
        node.ops[i] = SWAPS[type(old)]()
        change = f"{type(old).__name__} -> {type(node.ops[i]).__name__}"
    elif isinstance(node, ast.Constant):
        change = f"{node.value!r} -> {node.value + 1!r}"
        node.value += 1
    else:
        old = node.op
        node.op = SWAPS[type(old)]()
        change = f"{type(old).__name__} -> {type(node.op).__name__}"
    return ast.unparse(tree), node.lineno, f"{function}: {change}"


def verdict(survivors: list[str], timeouts: list[str], triaged: list[str]) -> list[str]:
    """One line per fault of the gate, none when it passes; each argument
    is a list of "function: change" labels, compared as multisets."""
    unlisted = Counter(survivors) - Counter(triaged)
    stale = Counter(triaged) - Counter(survivors)
    return (
        [f"timed out: {label}" for label in timeouts]
        + [f"survived, not in EQUIVALENT: {label}" for label in unlisted.elements()]
        + [f"in EQUIVALENT, not a survivor: {label}" for label in stale.elements()]
    )


def make_copy(root: Path) -> Path:
    for name in ("src", "tests", "data"):
        shutil.copytree(REPO / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "pyproject.toml", root)
    return root


def passes(copy: Path, module: Path, text: str, tests: list[str]) -> bool | None:
    """True if the tests pass on text, False if they fail, None on timeout."""
    (copy / module).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode == 0


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 2:
        print("usage: mutants.py MODULE TEST_FILE...", file=sys.stderr)
        return 2
    module, tests = Path(args[0]), args[1:]
    source = (REPO / module).read_text(encoding="utf-8")
    count = len(sites(ast.parse(source)))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = [make_copy(Path(tmp) / f"copy{j}") for j in range(JOBS)]
        unparsed = ast.unparse(ast.parse(source))
        if not passes(copies[0], module, unparsed, tests):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 1

        def run(job: int) -> list[tuple[int, int, str, bool | None]]:
            results = []
            for number in range(job, count, JOBS):
                text, line, label = mutate(source, number)
                results.append((number, line, label, passes(copies[job], module, text, tests)))
            return results

        with ThreadPoolExecutor(JOBS) as pool:
            results = sorted(r for job in pool.map(run, range(JOBS)) for r in job)
    survivors = [(line, label) for _, line, label, survived in results if survived]
    timeouts = [(line, label) for _, line, label, survived in results if survived is None]
    for line, label in survivors:
        print(f"survived  {module}:{line}: {label}")
    for line, label in timeouts:
        print(f"timed out {module}:{line}: {label}")
    print(f"{len(survivors)} of {count} mutants survived; {len(timeouts)} timed out")
    triaged = [f"{f}: {change}" for m, f, change, _ in EQUIVALENT if m == module.stem]
    faults = verdict([s for _, s in survivors], [t for _, t in timeouts], triaged)
    for fault in faults:
        print(f"FAIL {module}: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

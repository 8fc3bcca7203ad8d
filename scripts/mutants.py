#!/usr/bin/env python3
"""One-operator mutation probe: which changes to a module do its tests miss?

Inside the function bodies of one module, each mutant makes one change:
it swaps < and <=, > and >=, == and !=, + and -, * and /, or `and` and
`or`, or adds 1 to a numeric constant. Each mutant is written into a
private copy of src/, tests/ and data/ and runs against the given test
files with -x, JOBS mutants at once. A mutant the tests pass is a
survivor: either a test gap or code that changes no output. The unmutated
module, written the same way, must pass first.

    python scripts/mutants.py src/littrans/retrieval.py tests/test_retrieval.py

It takes minutes (each mutant is a pytest run), so CI runs it on
metrics.py, corpus.py, tokenization.py, decoder.py and retrieval.py only.
Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
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


def sites(tree: ast.Module) -> list[tuple[ast.AST, int | None]]:
    """(node, index of the operator in a comparison or None), in a fixed
    order, for every mutable spot inside an outermost function body."""
    found = []

    def visit(node: ast.AST, in_body: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_body:
            for stmt in node.body:
                visit(stmt, True)
            return
        if in_body:
            if isinstance(node, ast.Compare):
                found.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
            elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
                found.append((node, None))
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                found.append((node, None))
        for child in ast.iter_child_nodes(node):
            visit(child, in_body)

    visit(tree, False)
    return found


def mutate(source: str, number: int) -> tuple[str, str]:
    """The module with its number-th site changed, and a label for it."""
    tree = ast.parse(source)
    node, i = sites(tree)[number]
    if i is not None:
        old = node.ops[i]
        node.ops[i] = SWAPS[type(old)]()
        label = f"{type(old).__name__} -> {type(node.ops[i]).__name__}"
    elif isinstance(node, ast.Constant):
        label = f"{node.value!r} -> {node.value + 1!r}"
        node.value += 1
    else:
        old = node.op
        node.op = SWAPS[type(old)]()
        label = f"{type(old).__name__} -> {type(node.op).__name__}"
    return ast.unparse(tree), f"{node.lineno}: {label}"


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

        def run(job: int) -> list[tuple[int, str, bool | None]]:
            results = []
            for number in range(job, count, JOBS):
                text, label = mutate(source, number)
                outcome = passes(copies[job], module, text, tests)
                results.append((number, label, outcome))
            return results

        with ThreadPoolExecutor(JOBS) as pool:
            results = sorted(r for job in pool.map(run, range(JOBS)) for r in job)
    survivors = [label for _number, label, survived in results if survived]
    timeouts = [label for _number, label, survived in results if survived is None]
    for label in survivors:
        print(f"survived  {module}:{label}")
    for label in timeouts:
        print(f"timed out {module}:{label}")
    print(f"{len(survivors)} of {count} mutants survived; {len(timeouts)} timed out")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The mutation gate's own rules, on literal inputs: no mutant is run."""

import ast
import importlib.util
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", REPO_DIR / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = '''
LIMIT = 2


def top(x):
    return x > 1


class Pool:
    size = 3

    def grow(self, n):
        def step(m):
            return m + 1
        return step(n) and n
'''


def test_labels_name_the_enclosing_class_and_function():
    labels = [mutants.mutate(SOURCE, n)[1:] for n in range(len(mutants.sites(ast.parse(SOURCE))))]
    # module- and class-level constants are not mutated; a nested function
    # belongs to the function that holds it
    assert labels == [
        (6, "top: Gt -> GtE"),
        (6, "top: 1 -> 2"),
        (14, "Pool.grow: Add -> Sub"),
        (14, "Pool.grow: 1 -> 2"),
        (15, "Pool.grow: And -> Or"),
    ]
    text, _, _ = mutants.mutate(SOURCE, 0)
    assert "return x >= 1" in text


def test_equal_multisets_pass():
    labels = ["f: Gt -> GtE", "g: 1 -> 2", "f: Gt -> GtE"]
    assert mutants.verdict(labels, [], sorted(labels)) == []
    assert mutants.verdict([], [], []) == []


@pytest.mark.parametrize("survivors, timeouts, triaged, fault", [
    (["f: Gt -> GtE", "g: 1 -> 2"], [], ["f: Gt -> GtE"],
     "survived, not in EQUIVALENT: g: 1 -> 2"),
    ([], [], ["f: Gt -> GtE"], "in EQUIVALENT, not a survivor: f: Gt -> GtE"),
    (["f: Gt -> GtE", "f: Gt -> GtE"], [], ["f: Gt -> GtE"],
     "survived, not in EQUIVALENT: f: Gt -> GtE"),
    (["f: Gt -> GtE"], ["h: Sub -> Add"], ["f: Gt -> GtE"], "timed out: h: Sub -> Add"),
    # a timed-out mutant is no survivor, even when the table lists it
    ([], ["f: Gt -> GtE"], ["f: Gt -> GtE"], "timed out: f: Gt -> GtE"),
], ids=["unlisted", "stale", "twice-against-one", "timeout", "listed-timeout"])
def test_each_fault_fails_the_gate(survivors, timeouts, triaged, fault):
    assert fault in mutants.verdict(survivors, timeouts, triaged)


def test_every_table_entry_names_a_probed_function_and_a_reason():
    for module, function, change, reason in mutants.EQUIVALENT:
        source = (REPO_DIR / "src" / "littrans" / f"{module}.py").read_text(encoding="utf-8")
        assert function in {f for _, _, f in mutants.sites(ast.parse(source))}
        assert " -> " in change and reason

"""The same-bytes check's comparison, on literal result trees: no CLI is run."""

import importlib.util
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("samebytes", REPO_DIR / "scripts" / "samebytes.py")
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)

MANIFEST = '{{\n  "started": "{0}",\n  "finished": "{0}",\n  "sentences": 3\n}}\n'


def tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_equal_trees_differ_only_in_manifest_timestamps(tmp_path):
    ours = tree(tmp_path / "ours", {
        "0.exit": "0\n", "out/run_manifest.json": MANIFEST.format("2024-01-01"),
    })
    base = tree(tmp_path / "base", {
        "0.exit": "0\n", "out/run_manifest.json": MANIFEST.format("2025-06-30"),
    })
    assert samebytes.compare(ours, base) == []


def test_each_difference_names_its_first_differing_line(tmp_path):
    ours = tree(tmp_path / "ours", {
        "0.exit": "1\n",
        "0.stdout": "same\nours\nmore\n",
        "out/a.jsonl": "x\n",
        "out/run_manifest.json": MANIFEST.replace("3", "4").format("t"),
    })
    base = tree(tmp_path / "base", {
        "0.exit": "1\n",
        "0.stdout": "same\nbase\n",
        "out/a.jsonl": "x\ny\n",
        "out/b.jsonl": "x\n",
        "out/run_manifest.json": MANIFEST.format("t"),
    })
    assert samebytes.compare(ours, base) == [
        "out/b.jsonl: only in base",
        "0.exit: exit code 1",
        "0.stdout: line 2:\n    this tree: b'ours\\n'\n    base:      b'base\\n'",
        "out/a.jsonl: this tree has 1 lines, base 2",
        "out/run_manifest.json: line 2:\n"
        "    this tree: b'  \"sentences\": 4\\n'\n    base:      b'  \"sentences\": 3\\n'",
    ]

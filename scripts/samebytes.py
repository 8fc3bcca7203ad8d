#!/usr/bin/env python3
"""Do this tree and revision REV write the same bytes?

    python scripts/samebytes.py REV

Checks out REV as a git worktree under a temporary directory and runs
both trees' CLIs, each in a child process on its own src/, over one fixed
matrix of inputs:

- the toy config (data/toy): every prepare stage, translate, evaluate and
  validate;
- perfbench's prepare, translate-overlay and evaluate workloads at seeds
  5, 11 and 23, the first two with retrieval.keyword_count 1 and 5, each
  with and without a retrieval.external_pool (the other workload's
  corpus of the same seed).

Both trees read the same inputs, written once by this tree's perfbench
generator, and write to the same paths in turn, so printed paths match.
Compared per command: exit code, standard output, standard error, every
output file byte for byte (run_manifest.json without its started and
finished timestamps), and each translated sentence's exemplar ids, which
translate writes nowhere: they are read from decoder.run_corpus's result.
Each difference is printed with its first differing record, a line. Every
command must also exit 0 in this tree, or the comparison shows nothing.

Exit code: 0 when nothing differs and every command exits 0, 1 otherwise,
2 when REV cannot be checked out. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (5, 11, 23)
KEYWORD_COUNTS = (1, 5)
TIMESTAMPS = (b'  "started": ', b'  "finished": ')

# runs one CLI command; on translate it also writes each sentence's
# exemplar ids to the file named by its first argument
RUNNER = """
import json, sys
from littrans import cli, decoder

run_corpus = decoder.run_corpus

def run_and_dump(*args, **kwargs):
    results, manifest = run_corpus(*args, **kwargs)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        for result in results:
            for trace in result.traces:
                row = [result.doc_id, trace.seg_index, list(trace.exemplar_ids)]
                fh.write(json.dumps(row, ensure_ascii=False) + "\\n")
    return results, manifest

decoder.run_corpus = run_and_dump
sys.exit(cli.main(sys.argv[2:]))
"""


def matrix(cases: Path) -> list[tuple[str, Path, list[list[str]]]]:
    """(name, output directory, CLI argument lists) for every case; the
    perfbench inputs are written under ``cases``."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    toy_config = str(REPO / "data" / "toy" / "config.yaml")
    toy_out = cases / "toy" / "out"
    toy = [
        *(["prepare", stage] for stage in ("1", "2", "3", "baseline")),
        ["translate"],
        ["evaluate", str(toy_out / "hypotheses.jsonl"), str(REPO / "data" / "toy" / "corpus.jsonl")],
        ["validate"],
    ]
    found = [("toy", toy_out, [[*argv, "--config", toy_config, "--out", str(toy_out)]
                               for argv in toy])]
    for seed in SEEDS:
        built = {
            name: workloads.build(name, seed, cases / f"{name}-{seed}")
            for name in ("prepare", "translate-overlay", "evaluate")
        }
        evaluate = built.pop("evaluate")
        found.append((f"evaluate-{seed}", cases / f"evaluate-{seed}" / "out", evaluate.rounds))
        for name, other in (("prepare", "translate-overlay"), ("translate-overlay", "prepare")):
            work = cases / f"{name}-{seed}"
            pool = str(cases / f"{other}-{seed}" / "corpus.jsonl")
            for keywords in KEYWORD_COUNTS:
                for with_pool in (False, True):
                    sets = ["--set", f"retrieval.keyword_count={keywords}"]
                    if with_pool:
                        sets += ["--set", f"retrieval.external_pool={pool}"]
                    label = f"{name}-{seed}-k{keywords}{'-pool' if with_pool else ''}"
                    rounds = [[*argv, *sets] for argv in built[name].rounds]
                    found.append((label, work / "out", rounds))
    return found


def run_case(src: Path, out: Path, rounds: list[list[str]], keep: Path) -> None:
    """Run ``rounds`` on the CLI under ``src`` and move everything they
    wrote, with each command's exit code and streams, into ``keep``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    keep.mkdir(parents=True)
    for n, argv in enumerate(rounds):
        dump = keep / f"{n}.exemplar_ids.jsonl"
        run = subprocess.run(
            [sys.executable, "-c", RUNNER, str(dump), *argv],
            env=env, capture_output=True, cwd=out.parent,
        )
        (keep / f"{n}.exit").write_text(f"{run.returncode}\n", encoding="utf-8")
        (keep / f"{n}.stdout").write_bytes(run.stdout)
        (keep / f"{n}.stderr").write_bytes(run.stderr)
    if out.exists():
        out.rename(keep / "out")


def records(path: Path) -> list[bytes]:
    """The lines of one output, a run manifest's without its timestamps."""
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "run_manifest.json":
        lines = [line for line in lines if not line.startswith(TIMESTAMPS)]
    return lines


def first_difference(ours: Path, theirs: Path) -> str | None:
    """None when the two files hold the same lines, else the first line
    that differs, from both sides."""
    a, b = records(ours), records(theirs)
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return f"line {n}:\n    this tree: {x!r}\n    base:      {y!r}"
    if len(a) == len(b):
        return None
    return f"this tree has {len(a)} lines, base {len(b)}"


def compare(ours: Path, theirs: Path) -> list[str]:
    """One line per difference between two result trees."""
    files = {p.relative_to(ours) for p in ours.rglob("*") if p.is_file()}
    base_files = {p.relative_to(theirs) for p in theirs.rglob("*") if p.is_file()}
    found = [f"{path}: only in this tree" for path in sorted(files - base_files)]
    found += [f"{path}: only in base" for path in sorted(base_files - files)]
    # outputs that match because every command failed would show nothing
    found += [
        f"{path.name}: exit code {path.read_text(encoding='utf-8').strip()}"
        for path in sorted(ours.glob("*.exit"))
        if path.read_text(encoding="utf-8") != "0\n"
    ]
    for path in sorted(files & base_files):
        difference = first_difference(ours / path, theirs / path)
        if difference is not None:
            found.append(f"{path}: {difference}")
    return found


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: samebytes.py REV", file=sys.stderr)
        return 2
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        base = Path(tmp) / "base"
        add = subprocess.run(
            ["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet", str(base), rev],
            capture_output=True, text=True,
        )
        if add.returncode != 0:
            print(f"cannot check out {rev}: {add.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            cases = matrix(Path(tmp) / "cases")
            differences = []
            for name, out, rounds in cases:
                for tree, src in (("ours", REPO / "src"), ("base", base / "src")):
                    run_case(src, out, rounds, Path(tmp) / tree / name)
                differences += [
                    f"{name}/{line}"
                    for line in compare(Path(tmp) / "ours" / name, Path(tmp) / "base" / name)
                ]
        finally:
            subprocess.run(
                ["git", "-C", str(REPO), "worktree", "remove", "--force", str(base)],
                capture_output=True,
            )
    for line in differences:
        print(f"DIFF {line}")
    commands = sum(len(rounds) for _, _, rounds in cases)
    print(f"{len(cases)} cases, {commands} commands per tree: "
          f"{len(differences)} differences from {rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end demo on the bundled toy corpus.

Writes every stage's data files, translates with the scripted mock
backend, and scores the result, all into out/toy/, then checks the
corpus. Everything is deterministic; run it twice and diff the outputs
if you doubt it.
"""

import sys
from pathlib import Path

from littrans.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIG = str(REPO / "data" / "toy" / "config.yaml")
OUT = str(REPO / "out" / "toy")


def run(args):
    print(f"\n$ littrans {' '.join(args)}")
    code = main(args)
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    for stage in ("1", "2", "3", "baseline"):
        run(["prepare", stage, "--config", CONFIG, "--out", OUT])
    run(["translate", "--config", CONFIG, "--out", OUT])
    run([
        "evaluate",
        str(Path(OUT) / "hypotheses.jsonl"),
        str(REPO / "data" / "toy" / "corpus.jsonl"),
        "--config", CONFIG,
        "--out", OUT,
    ])
    run(["validate", "--config", CONFIG])
    print(f"\nall outputs in {OUT}")

"""littrans benchmark: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload, one line each

Builds the workload's seeded inputs in perfbench/runs/, then:

- with --trace 0, times the set-up path in separate fresh processes
  (process start to the first unit of work; median of SETUP_RUNS) and
  runs whole rounds through littrans.cli in a fresh worker process for at
  least S seconds, reporting the end-to-end metrics;
- with --trace 1, runs an untraced, a traced and another untraced round
  in one worker and reports the per-layer metrics; the spans are written
  to perfbench/runs/traces/.

Every run checks the program's outputs. The last line of standard output
is one JSON object with correct, attempted, failed and metrics; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
WORKER_TIMEOUT_S = 150


def _worker(plan: Path, mode: str, seconds: float, result: Path, log: Path) -> subprocess.Popen:
    with log.open("ab") as fh:
        return subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan), mode, str(seconds), str(result)],
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if mode == "setup" else fh,
            stderr=fh,
        )


def _finish(proc: subprocess.Popen, log: Path) -> bytes:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        tail = log.read_text("utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
    return out or b""


def setup_seconds(plan: Path, work: Path) -> float:
    """Median time from process start to the first unit of work."""
    times = []
    for _ in range(SETUP_RUNS):
        started = time.monotonic()
        proc = _worker(plan, "setup", 0, work / "unused.json", work / "worker.log")
        out = _finish(proc, work / "worker.log")
        times.append(json.loads(out.decode().strip().splitlines()[-1])["first_unit"] - started)
    return statistics.median(times)


class Stub:
    def __init__(self, spec: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(spec["delay_ms"]),
             spec["answers"], spec["reject"], spec["log"]],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.port = int(self.proc.stdout.readline())

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "runs" / f"{name}-s{seed}-{'trace' if trace else 'e2e'}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = workloads.build(name, seed, work)
    plan = work / "plan.json"
    plan.write_text(json.dumps(wl.plan(), ensure_ascii=False), "utf-8")
    (work / "units.json").write_text(json.dumps(wl.units, ensure_ascii=False), "utf-8")
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics["setup_s"] = (setup_seconds(plan, work), "s")
    stub = Stub(wl.stub) if wl.stub else None
    try:
        if stub is not None:
            workloads.point_at_stub(wl, work, stub.port)
        result_path = work / "result.json"
        proc = _worker(plan, "trace" if trace else "measure", seconds, result_path, work / "worker.log")
        _finish(proc, work / "worker.log")
    finally:
        if stub is not None:
            stub.stop()
    result = json.loads(result_path.read_text("utf-8"))
    problems = workloads.check(wl, work, seed, result)
    done = result["rounds"] * wl.sentences
    if trace:
        for key, value in result["per_layer"].items():
            metrics[key] = (value, tracer.unit(key))
    else:
        metrics["sentences_per_s"] = (done / result["wall_s"], "1/s")
        metrics["cpu_ms_per_sentence"] = (result["cpu_s"] * 1000.0 / done, "ms")
        metrics["sentence_ms_p50"] = (result["sentence_ms_p50"], "ms")
        metrics["sentence_ms_p95"] = (result["sentence_ms_p95"], "ms")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": done,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "littrans" / "cli.py").is_file():
        print(f"benchmark: no littrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.BUILDERS)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        if not args.workload:
            print(f"== {name}: attempted {result['attempted']} failed {result['failed']}"
                  f" correct {result['correct']}")
            for key, m in result["metrics"].items():
                print(f"   {key:32s} {m['value']:14.4f} {m['unit']}")
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

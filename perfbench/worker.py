"""One benchmark process: runs a workload's rounds through littrans.cli.

Started fresh for every measurement, so it pays for the import, the cache
fills and the set-up the way a command-line user does. It imports
littrans from the checkout's src/; outside trace mode it imports nothing else
but the standard library, so the benchmark's own code stays out of its
time and memory.

    python3 perfbench/worker.py PLAN MODE SECONDS RESULT

MODE is "setup" (stop at the first unit of work and print its clock
reading), "measure" (whole untraced rounds until SECONDS have passed,
then per-sentence latencies from the unit probe) or "trace" (an
untraced round, a traced round and another untraced round).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
UNIT_BASE = 1_000_000  # unit code = document number * UNIT_BASE + seg_index


def _probe_owner(plan: dict):
    module, cls, attr = plan["probe"]
    owner = importlib.import_module(module)
    return (getattr(owner, cls) if cls else owner), attr


def run_round(cli, plan: dict) -> None:
    for argv in plan["rounds"]:
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"littrans {' '.join(argv[:2])} exited with {code}")


def setup(plan: dict) -> None:
    import littrans.cli as cli

    owner, attr = _probe_owner(plan)

    def first_unit(*args, **kwargs):
        os.write(1, json.dumps({"first_unit": time.monotonic()}).encode() + b"\n")
        os._exit(0)

    setattr(owner, attr, first_unit)
    cli.main(plan["rounds"][-1])
    raise SystemExit("the setup command ended without reaching a unit of work")


def latencies(times, codes) -> list[float]:
    """Intervals between successive unit starts in one document; a repeat
    of the same unit is a retry and keeps the first start."""
    last: dict[int, tuple[int, float]] = {}
    out = []
    for t, code in zip(times, codes):
        doc, seg = divmod(code, UNIT_BASE)
        prev = last.get(doc)
        if prev is not None and seg == prev[0]:
            continue
        if prev is not None and seg == prev[0] + 1:
            out.append((t - prev[1]) * 1000.0)
        last[doc] = (seg, t)
    return out


class Probe:
    """Stamps the clock at every call of the plan's unit-start function
    whose key names a unit; while `capturing`, also keeps the call's key
    argument.

    Clock readings and unit codes go to flat arrays and no reference to
    the program's objects is kept, so the probe's memory and the
    collector's work stay the same per round however many rounds run."""

    def __init__(self, plan: dict, work: Path):
        self.owner, self.attr = _probe_owner(plan)
        self.original = original = getattr(self.owner, self.attr)
        units = json.loads((work / "units.json").read_text("utf-8"))
        codes_of = {key: doc * UNIT_BASE + seg for key, (doc, seg) in units.items()}
        self.times = times = array("d")
        self.codes = codes = array("q")
        self.captured: list = []
        self.capturing = plan["capture"]
        key_arg, key_attr, clock = plan["key_arg"], plan["key_attr"], time.monotonic
        probe = self

        def unit_start(*args, **kwargs):
            key = args[key_arg]
            if probe.capturing:
                probe.captured.append(key)
            code = codes_of.get(getattr(key, key_attr) if key_attr else key)
            if code is not None:
                times.append(clock())
                codes.append(code)
            return original(*args, **kwargs)

        setattr(self.owner, self.attr, unit_start)

    def remove(self) -> None:
        setattr(self.owner, self.attr, self.original)

    def captured_prompts(self) -> list[dict]:
        return [
            {
                "source": s.current_source,
                "context": [[e.source, e.translation] for e in s.context_block],
                "exemplars": [[e.source, e.translation] for e in s.exemplar_block],
            }
            for s in self.captured
        ]


def measure(plan: dict, seconds: float, work: Path) -> dict:
    """Whole rounds until `seconds` have passed (at least one round)."""
    import littrans.cli as cli

    probe = Probe(plan, work)
    rounds = 0
    cpu0, start = time.process_time(), time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        run_round(cli, plan)
        rounds += 1
        probe.capturing = False
    wall, cpu = time.monotonic() - start, time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe.remove()

    lat = latencies(probe.times, probe.codes)
    return {
        "rounds": rounds,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "sentence_ms_p50": statistics.median(lat),
        "sentence_ms_p95": statistics.quantiles(lat, n=100)[94],
        "captured": probe.captured_prompts(),
    }


def trace(plan: dict, work: Path) -> dict:
    """Untraced, traced, untraced: the traced round gives the per-layer
    numbers, the other two its overhead."""
    import littrans.cli as cli
    import tracer

    probe = Probe(plan, work)  # only to capture the first round's prompts
    walls = []
    spans = tracer.Tracer()
    for traced in (False, True, False):
        if traced:
            tracer.instrument(spans)
        start = time.perf_counter()
        try:
            run_round(cli, plan)
        finally:
            walls.append(time.perf_counter() - start)
            spans.restore()
        probe.capturing = False
    probe.remove()
    spans_path = work.parent / "traces" / f"{work.name}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans.write(spans_path)
    layer = tracer.layer_metrics(spans, plan["sentences"])
    layer["trace.overhead_ratio"] = walls[1] / ((walls[0] + walls[2]) / 2.0)
    return {"rounds": 3, "per_layer": layer, "captured": probe.captured_prompts()}


def main(argv: list[str]) -> None:
    plan_path, mode, seconds, result_path = argv
    plan = json.loads(Path(plan_path).read_text("utf-8"))
    if mode == "setup":
        setup(plan)
    work = Path(plan_path).parent
    if mode == "measure":
        result = measure(plan, float(seconds), work)
    else:
        result = trace(plan, work)
    Path(result_path).write_text(json.dumps(result, ensure_ascii=False), "utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Run one stanley-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hard-panel --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``.  One
process, no threads, ``jobs=1``.  Passes of the workload run back to back
until ``--seconds`` have passed, at least two of them; inside a pass each
instance is issued after the previous one returned.  Each pass is checked
right after it ends, outside the timed region.  ``--trace 1`` alternates
untraced and traced passes, at least one of each, and reports the per-layer
metrics of the traced ones with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result, with
its metadata, answers and (when traced) spans, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

import workloads as wl  # noqa: E402  (sits beside this file)
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SETUP_PROBES = 10  # fresh processes that only set up; with this one, 11 samples
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

# The end-to-end metrics gated by BENCHMARK.json: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "instance_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Record:
    inst: wl.Instance
    seconds: float
    result: object = None
    error: str | None = None
    answer: dict | None = None
    failed: bool = False


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    records: list = field(default_factory=list)


def setup(workload: str, seed: int, reference: dict):
    """Import the library and generate the inputs; returns (lib, inputs, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "stanley_lab", "__init__.py")):
        raise SystemExit(f"stanley_lab sources not found under {SRC}")
    start = perf_counter()
    sys.path.insert(0, SRC)
    lib = wl.import_library()
    inputs = wl.make_inputs(lib, workload, seed, reference)
    return lib, inputs, perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measured it."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_one_pass(inputs: wl.Inputs, tracer: Tracer | None) -> Pass:
    current = Pass(traced=tracer is not None)

    def call(inst: wl.Instance):
        start = perf_counter()
        try:
            result = inst()
        except Exception:  # a failed instance is counted, and the loop goes on
            current.records.append(Record(inst, perf_counter() - start, error=traceback.format_exc()))
            return None
        current.records.append(Record(inst, perf_counter() - start, result))
        return result

    # The harness's own objects (reference answers, inputs) are long-lived:
    # freezing them keeps the library's garbage collections from walking them.
    gc.collect()
    gc.freeze()
    start = perf_counter()
    if tracer is None:
        wl.run_pass(inputs, call)
    else:
        with tracer:
            wl.run_pass(inputs, call)
    current.wall = perf_counter() - start
    gc.unfreeze()
    return current


class Checker:
    """Checks each pass as soon as it ends, outside the timed region, then
    keeps only its answers, so that memory does not grow with the passes.

    The first answer of each instance is checked in full; every later one,
    traced or not, must equal it.
    """

    def __init__(self, lib, reference: dict) -> None:
        self.lib = lib
        self.reference = reference
        self.first: dict[str, dict] = {}
        self.bad_keys: set[str] = set()
        self.problems: list[str] = []
        self.size_changes = 0

    def settle(self, p: Pass) -> None:
        for rec in p.records:
            key = rec.inst.key
            if rec.error is not None:
                rec.failed = True
                self.problems.append(f"{key}: raised\n{rec.error}")
                continue
            rec.answer = wl.summarize(rec.inst, rec.result)
            if key not in self.first:
                self.first[key] = rec.answer
                found = wl.check(self.lib, rec.inst, rec.result, rec.answer, self.reference)
                self.size_changes += wl.reference_size_changes(rec.inst, rec.answer, self.reference)
                if found:
                    self.bad_keys.add(key)
                    self.problems += [f"{key}: {msg}" for msg in found]
            elif rec.answer != self.first[key]:
                self.bad_keys.add(key)
                kind = "traced" if p.traced else "repeated"
                self.problems.append(f"{key}: {kind} answer differs from the first: {rec.answer}")
            rec.failed = key in self.bad_keys
            rec.result = None


def measure(inputs: wl.Inputs, seconds: float, tracer: Tracer | None,
            checker: Checker) -> tuple[list[Pass], float]:
    """Rounds of passes until ``seconds`` have passed.  A round is one pass,
    or with a tracer an untraced and a traced pass.  Untraced runs make at
    least two rounds, so that each instance has two latency samples.

    Returns the passes and the peak resident memory in MB at the end of the
    first pass, before any check ran.
    """
    passes: list[Pass] = []
    peak_rss_mb = 0.0
    min_rounds = 1 if tracer is not None else 2
    rounds = 0
    start = perf_counter()
    while rounds < min_rounds or perf_counter() - start < seconds:
        for t in (None, tracer) if tracer is not None else (None,):
            p = run_one_pass(inputs, t)
            if not passes:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checker.settle(p)
            passes.append(p)
        rounds += 1
    return passes, peak_rss_mb


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end(passes: list[Pass], setup_samples: list[float], peak_rss_mb: float,
               failed: int, attempted: int) -> tuple[dict, list[str]]:
    """The gated metrics, and report lines for them and the ungated ones."""
    untraced = [p for p in passes if not p.traced]
    latencies = sorted(r.seconds for p in untraced for r in p.records)
    metrics = {
        "wall_s": statistics.median(p.wall for p in untraced),
        "instance_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [f"{name:<16} {metrics[name]:.6f} {unit:<6} {better} is better"
             for name, (unit, better) in END_TO_END.items()]
    n = len(latencies)
    tail = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), None)
    if tail is None:
        lines.append(f"{'instance_tail_s':<16} n/a: {n} samples leave fewer than 10 beyond p75")
    else:
        beyond = sum(1 for x in latencies if x > percentile(latencies, tail))
        lines.append(f"{'instance_tail_s':<16} {percentile(latencies, tail):.6f} s      lower is better"
                     f" (p{tail:g} of {n} samples, {beyond} beyond it)")
    exact = total = 0
    for p in untraced:
        for r in p.records:
            if r.answer is not None:
                e, t = wl.sdepth_counts(r.inst, r.answer)
                exact, total = exact + e, total + t
    if total:
        lines.append(f"{'exact_share':<16} {exact / total:.6f} ratio  higher is better"
                     f" ({exact} of {total} sdepth answers exact)")
    else:
        lines.append(f"{'exact_share':<16} n/a: this workload gives no sdepth answers")
    lines.append(f"{'failed_share':<16} {failed / attempted:.6f} ratio  lower is better"
                 f" ({failed} of {attempted} attempted)")
    return metrics, lines


def per_layer(passes: list[Pass], tracer: Tracer) -> dict:
    """Per-layer totals per traced pass, plus the traced wall time and overhead."""
    traced = [p for p in passes if p.traced]
    totals = tracer.layer_totals()
    metrics = {
        name: value if name.endswith("max_entries") else value / len(traced)
        for name, value in totals.items()
    }
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    reference = wl.load_reference()
    lib, inputs, setup_seconds = setup(args.workload, args.seed, reference)
    if args.setup_probe:
        print(f"{setup_seconds:.9f}")
        return 0

    tracer = Tracer() if args.trace else None
    checker = Checker(lib, reference)
    passes, peak_rss_mb = measure(inputs, args.seconds, tracer, checker)
    records = [r for p in passes for r in p.records]
    attempted, failed = len(records), sum(r.failed for r in records)
    problems = checker.problems
    if any(len(p.records) != len(passes[0].records) for p in passes):
        problems.append("passes issued different numbers of instances")
    setup_samples = [setup_seconds] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    e2e, lines = end_to_end(passes, setup_samples, peak_rss_mb, failed, attempted)
    untraced = [p for p in passes if not p.traced]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budgets": {
            "hard_panel_sdepth": wl.HARD_BUDGET,
            "sweep": wl.SWEEP_ARGS["budget"],
            "certify": lib.sdepth.DEFAULT_BUDGET,
        },
        "instances_per_pass": len(untraced[0].records),
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "attempted": attempted,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_line_count(),
        "setup_samples_s": setup_samples,
    }
    if tracer is not None:
        metrics = per_layer(passes, tracer)
        lines += [f"{name:<48} {metrics[name]:.6f} {LAYER_METRICS[name][0]}" for name in LAYER_METRICS]
        selected = LAYER_METRICS
    else:
        metrics = e2e
        selected = END_TO_END
    correct = not problems

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_spans(stem + "-spans.json.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "end_to_end": e2e, "metrics": metrics, "correct": correct,
                   "problems": problems, "passes": [
                       {"traced": p.traced, "wall_s": p.wall,
                        "latencies_s": [[r.inst.key, r.seconds] for r in p.records]}
                       for p in passes],
                   "answers": checker.first, "certificate_size_changes": checker.size_changes},
                  fh, indent=1, default=str)
        fh.write("\n")

    print(f"# stanley-lab benchmark  {json.dumps(meta)}")
    for line in lines:
        print(line)
    print("check: " + ("passed" if correct else f"FAILED, {len(problems)} problems"))
    if checker.size_changes:
        print(f"note: {checker.size_changes} certificate sizes differ from the reference")
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": selected[name][0]} for name in selected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

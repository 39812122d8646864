"""End-to-end campaign benchmark with outside-in per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hub-admission --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload plays rounds of ``run_sweep`` (serial backend, JSONL sink)
through the public sweep entry point for ``--seconds`` of wall time.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and the layer table sorted
by self-time share.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in a fresh process, one after the
other, so that memory and set-up figures belong to that workload alone.

Exit codes: 0 when every check passed, 1 when a check failed (the
result line says which run), 2 when the benchmark cannot run at all,
for instance outside a checkout holding ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MAX_PROBLEMS_SHOWN = 20


def workload_names() -> List[str]:
    with open(os.path.join(HERE, "rationale.json"), "r", encoding="utf-8") as handle:
        return list(json.load(handle)["workloads"])


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def declared_metrics(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    group = declared["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args: argparse.Namespace) -> int:
    # Imported here: these need src/ on sys.path.
    from runner import Session, run_traced, run_untraced, warm_up
    from workloads import Workload

    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        workload = Workload(args.workload, args.seed)
        warm_up(out_dir)
        session = Session(workload, out_dir)
        run = run_traced if args.trace else run_untraced
        outcome = run(session, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass  # another run still uses it

    declared = declared_metrics(args.trace)
    if set(declared) != set(outcome.metrics):
        missing = sorted(set(declared) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(declared))
        print(
            f"perfbench: metrics disagree with BENCHMARK.json; "
            f"missing {missing}, undeclared {extra}",
            file=sys.stderr,
        )
        return 2
    for name, unit in declared.items():
        if outcome.metrics[name][1] != unit:
            print(f"perfbench: {name} is in {outcome.metrics[name][1]}, "
                  f"BENCHMARK.json says {unit}", file=sys.stderr)
            return 2

    mode = "each played untraced and traced" if args.trace else "untraced"
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"{outcome.rounds} rounds ({mode}) in {outcome.measured_s:.2f} s  "
        f"(serial backend, one process, closed loop with one client)"
    )
    if outcome.layer_table is not None:
        print(f"{'layer':<34} {'calls':>10} {'self_ms':>12} {'share':>7}")
        for name, calls, self_ms, share in outcome.layer_table:
            print(f"{name:<34} {calls:>10} {self_ms:>12.1f} {share:>7.1%}")
    print(f"{'metric':<40} {'value':>14}  {'unit':<9} samples")
    for name, unit in declared.items():
        value = outcome.metrics[name][0]
        print(f"{name:<40} {value:>14.6g}  {unit:<9} {outcome.notes.get(name, '')}")
    for problem in outcome.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"CHECK FAILED {problem}")
    if len(outcome.problems) > MAX_PROBLEMS_SHOWN:
        print(f"CHECK FAILED ... and {len(outcome.problems) - MAX_PROBLEMS_SHOWN} more")
    correct = not outcome.problems
    print(f"checks: {'all passed' if correct else f'{len(outcome.problems)} failed'}")
    metrics = {
        name: {"value": outcome.metrics[name][0], "unit": unit}
        for name, unit in declared.items()
    }
    print(result_line(correct, outcome.attempted, outcome.failed, metrics))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one combined result line."""
    status = 0
    correct = True
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    for name in workload_names():
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print()
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return max(status, 2)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(result_line(correct, attempted, failed, metrics))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

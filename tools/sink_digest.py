"""Print a SHA-256 of every benchmark sink, to compare two checkouts.

Plays rounds 0 and 1 of each perfbench workload (hub-admission,
srlg-replay, catalogue-sweep) for seeds 3 and 42 through
``run_sweep(Workload(name, seed).round_config(i), backend="serial")``
with a JSONL sink, and prints one line per sink::

    <workload> seed=<s> round=<i> <sha256 of the JSONL bytes>

Twelve lines in all.  A change that must keep behaviour byte-identical
prints the same twelve lines as its parent::

    python3 tools/sink_digest.py > after.txt
    python3 tools/sink_digest.py /path/to/parent/checkout > before.txt
    diff before.txt after.txt

The optional argument names the checkout whose ``src/`` and
``perfbench/`` are imported (default: the one holding this script).
The script only reads perfbench's workload definitions; it never edits
them.  Expect a few minutes of single-core time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

WORKLOADS = ("hub-admission", "srlg-replay", "catalogue-sweep")
SEEDS = (3, 42)
ROUNDS = (0, 1)


def main(argv: "list[str]") -> int:
    if len(argv) > 1:
        print("usage: sink_digest.py [CHECKOUT]", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(argv[0] if argv else os.path.dirname(here))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]

    from repro.scenarios.sweep.engine import run_sweep
    from workloads import Workload

    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOADS:
            for seed in SEEDS:
                workload = Workload(name, seed)
                for index in ROUNDS:
                    path = os.path.join(scratch, f"{name}-{seed}-{index}.jsonl")
                    run_sweep(
                        workload.round_config(index),
                        backend="serial",
                        jsonl_path=path,
                    )
                    with open(path, "rb") as handle:
                        digest = hashlib.sha256(handle.read()).hexdigest()
                    print(f"{name} seed={seed} round={index} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

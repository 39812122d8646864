#!/usr/bin/env python
"""Regenerate every paper artefact and save the raw rows as JSON.

Runs the full experiment index (``repro list``: figures + ablations) at
the default configurations, prints each table, and writes
``results/<id>.json`` next to this script.

Run (takes a few seconds):
    python examples/reproduce_figures.py
"""

import os
import sys

from repro.experiments import EXPERIMENTS


def main() -> None:
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(EXPERIMENTS):
        print(f"running {name} ...", file=sys.stderr)
        result = EXPERIMENTS[name]()
        print(result.to_table())
        print()
        path = os.path.join(out_dir, f"{name}.json")
        result.save(path)
        print(f"  -> saved {path}", file=sys.stderr)


if __name__ == "__main__":
    main()

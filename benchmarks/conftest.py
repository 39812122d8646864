"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artefact (an id of ``repro list``)
through the same harness the CLI exposes, asserts the paper's qualitative shape on the
result, and reports wall-clock timing via pytest-benchmark.  Heavy sweeps
run once per benchmark (``pedantic`` mode) — the timing of interest is
"how long does regenerating this figure take", not a microsecond average.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer and return it."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def series(result, scheduler, y, x="n_locals"):
    """Ordered ``y`` values of one scheduler from an ExperimentResult."""
    return [row[y] for row in result.rows if row["scheduler"] == scheduler]

"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artefact (an id of ``repro list``)
through the same harness the CLI exposes, asserts the paper's qualitative shape on the
result, and reports wall-clock timing via pytest-benchmark.  Heavy sweeps
run once per benchmark (``pedantic`` mode) — the timing of interest is
"how long does regenerating this figure take", not a microsecond average.
"""

from __future__ import annotations

from repro.bench import verify_record


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer and return it."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def assert_floors(suite, campaign, metrics, smoke):
    """Hold one campaign's metrics to the ``FLOORS`` entries they report.

    The pytest twin of ``repro bench verify``: the same table, judged by
    the same :func:`~repro.bench.verify_record`, so no limit is written
    twice.  Timing floors are skipped in smoke mode, as verify skips
    them on smoke records.
    """
    record = {"smoke": smoke, "suites": {suite: {campaign: metrics}}}
    reported = {f"{campaign}.{key}" for key in metrics}
    failed = [
        violation.reason
        for violation in verify_record(record)
        if violation.floor.metric in reported
    ]
    assert not failed, "; ".join(failed)


def series(result, scheduler, y, x="n_locals"):
    """Ordered ``y`` values of one scheduler from an ExperimentResult."""
    return [row[y] for row in result.rows if row["scheduler"] == scheduler]

"""Benchmark abl-simcheck: analytic model vs event-driven execution.

The repository's figures come from the analytic evaluator; this bench
re-derives the same round latencies by *executing* the rounds as
simulator events and checks that the two independent implementations
agree within 10% at every sweep point (``max_gap_percent``, floored in
``FLOORS``), and exactly for the fixed scheduler, whose paths have no
cross-flow dependencies.
"""

from repro.bench import bench_suite
from repro.experiments.extensions import run_model_validation

from benchmarks.conftest import assert_floors, run_once


@bench_suite("simcheck", headline="max_gap_percent")
def suite(smoke: bool = False) -> dict:
    """Analytic vs executed rounds: within 10% everywhere, exact for fixed."""
    result = run_model_validation(n_locals_values=(3, 9, 15))

    for row in result.rows:
        if row["scheduler"] == "fixed-spff":
            assert abs(row["gap_percent"]) < 0.01, row
    return {
        "rows": len(result.rows),
        "max_gap_percent": round(
            max(abs(row["gap_percent"]) for row in result.rows), 4
        ),
    }


def test_analytic_vs_executed(benchmark):
    assert_floors("simcheck", None, run_once(benchmark, suite), smoke=False)

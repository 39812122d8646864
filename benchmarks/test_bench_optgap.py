"""Benchmark abl-optgap: MST heuristic vs exact Steiner optimum.

Asserted shape: at every terminal count the heuristic sits between the
optimum (ratio >= 1) and the textbook 2(1 - 1/k) guarantee, with the
*mean* gap small (``worst_mean_ratio``, floored at 1.10 in ``FLOORS``)
on the metro fabric — the poster's MST construction is near-optimal in
practice, not merely bounded.
"""

from repro.bench import bench_suite
from repro.experiments.extensions import run_optimality_gap

from benchmarks.conftest import assert_floors, run_once


@bench_suite("optgap", headline="worst_mean_ratio")
def suite(smoke: bool = False) -> dict:
    """MST optimality gap: bounded by the guarantee, small in practice."""
    result = run_optimality_gap(n_locals_values=(3, 5), n_samples=10)

    for row in result.rows:
        assert 1.0 - 1e-9 <= row["mean_ratio"] <= row["worst_ratio"]
        assert row["worst_ratio"] <= row["guarantee"] + 1e-9
    return {
        "worst_mean_ratio": round(
            max(row["mean_ratio"] for row in result.rows), 6
        ),
        "worst_ratio": round(
            max(row["worst_ratio"] for row in result.rows), 6
        ),
    }


def test_mst_optimality_gap(benchmark):
    assert_floors("optgap", None, run_once(benchmark, suite), smoke=False)

"""Benchmark abl-fp16: half-precision weight exchange.

The poster motivates flexible scheduling with rapidly growing model
sizes; fp16 halves the wire format.  Asserted shape: compression does
not change which scheduler wins.  That communication time falls to
roughly half for both schedulers (the 0.35-0.65 band on
``fp16_comm_ratio`` and ``fp16_comm_ratio_fixed``) is judged by the
floors in ``repro.bench.verify.FLOORS``.
"""

from repro.bench import bench_suite
from repro.experiments.extensions import run_compression_ablation

from benchmarks.conftest import assert_floors, run_once


@bench_suite("compression", headline="fp16_comm_ratio")
def suite(smoke: bool = False) -> dict:
    """fp16 ablation: half the wire format, same scheduler ordering."""
    result = run_compression_ablation(n_tasks=10, n_locals=9)

    def row(precision, scheduler):
        for record in result.rows:
            if record["precision"] == precision and record["scheduler"] == scheduler:
                return record
        raise AssertionError("row missing")

    ratios = {}
    for scheduler in ("fixed-spff", "flexible-mst"):
        full = row("fp32", scheduler)["comm_ms"]
        half = row("fp16", scheduler)["comm_ms"]
        ratios[scheduler] = half / full

    # The schedulers' relative order is precision-invariant.
    for precision in ("fp32", "fp16"):
        assert (
            row(precision, "flexible-mst")["round_ms"]
            < row(precision, "fixed-spff")["round_ms"] * 1.05
        )
    return {
        "fp16_comm_ratio": round(ratios["flexible-mst"], 4),
        "fp16_comm_ratio_fixed": round(ratios["fixed-spff"], 4),
        "flexible_round_ms_fp16": round(
            row("fp16", "flexible-mst")["round_ms"], 4
        ),
    }


def test_fp16_compression(benchmark):
    assert_floors("compression", None, run_once(benchmark, suite), smoke=False)

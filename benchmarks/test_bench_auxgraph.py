"""Benchmark abl-aux: auxiliary-graph weighting ablation.

The alpha (bandwidth) / beta (latency) blend of the auxiliary-graph
edge weight is the flexible scheduler's central design knob (see the
README).  The sweep must expose the trade: growing alpha never increases
consumed bandwidth, and the bandwidth-heaviest setting consumes no more
than the latency-only one.
"""

from repro.bench import bench_suite
from repro.experiments.ablations import run_auxgraph_ablation

from benchmarks.conftest import run_once

ALPHAS = (0.0, 1.0, 8.0)


@bench_suite("auxgraph", headline="bandwidth_drop_gbps")
def suite(smoke: bool = False) -> dict:
    """Auxiliary-graph alpha sweep: bandwidth monotone in the blend."""
    result = run_auxgraph_ablation(
        alpha_values=ALPHAS, n_tasks=12, n_locals=8, seed=19
    )

    bandwidths = [row["bandwidth_gbps"] for row in result.rows]
    # Weighting bandwidth harder never buys *more* bandwidth.
    assert bandwidths[-1] <= bandwidths[0] + 1e-6
    # Every point schedules successfully (rows exist for all alphas).
    assert [row["alpha_bandwidth"] for row in result.rows] == list(ALPHAS)
    return {
        "alphas": list(ALPHAS),
        "bandwidth_latency_only_gbps": round(bandwidths[0], 4),
        "bandwidth_heaviest_gbps": round(bandwidths[-1], 4),
        "bandwidth_drop_gbps": round(bandwidths[0] - bandwidths[-1], 4),
    }


def test_auxiliary_weight_sweep(benchmark):
    run_once(benchmark, suite)

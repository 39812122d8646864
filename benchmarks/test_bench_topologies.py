"""Benchmark: build throughput for every registered topology family.

Builds each family repeatedly at a representative size, records
builds/second (and the instance's node/link counts) per family, and
asserts the registry's determinism contract along the way — two builds
with the same merged parameters must be byte-identical.  Topology
construction sits on every sweep run's critical path (each (scenario,
params, seed) run rebuilds its fabric), so a generator regression shows
up here before it shows up as a mysteriously slow sweep.  Results land
in ``BENCH_HISTORY.jsonl`` through the ``repro bench`` harness, and
``repro bench verify`` floors the build rates of the hottest families.

Smoke mode (``repro bench run --smoke``, or ``REPRO_BENCH_SMOKE=1``
under pytest) drops the repeat count to 2; the determinism check still
runs.
"""

from __future__ import annotations

import os
import time

from repro.bench import bench_suite
from repro.network.topology import list_families

from benchmarks.conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Representative (non-toy) build sizes per family; families not named
#: here build at their schema defaults.
BENCH_PARAMS = {
    "metro-mesh": {"n_sites": 24, "servers_per_site": 2},
    "metro-ring": {"n_sites": 24, "servers_per_site": 2},
    "spine-leaf": {"n_spines": 8, "n_leaves": 16},
    "fat-tree": {"k": 8},
    "scale-free": {"n_routers": 200},
    "random-geometric": {"n_routers": 150},
    "waxman": {"n_routers": 100},
    "clos": {"n_pods": 8, "leaves_per_pod": 4, "spines_per_pod": 4, "n_cores": 8},
    "multi-metro-wan": {"n_regions": 4, "sites_per_region": 8},
}


def _fingerprint(net) -> str:
    nodes = tuple((n.name, n.kind.value) for n in net.nodes())
    links = tuple(
        (l.u, l.v, l.capacity_gbps, l.distance_km) for l in net.links()
    )
    return repr((nodes, links))


@bench_suite("topologies", headline="clos.builds_per_s")
def suite(smoke: bool = False) -> dict:
    """Build rate and determinism for every registered topology family."""
    rounds = 2 if smoke else 20
    stats = {}
    deterministic = True
    for family in list_families():
        params = BENCH_PARAMS.get(family.name, {})
        first = family.build(params)
        assert _fingerprint(first) == _fingerprint(family.build(params)), (
            f"family {family.name} is not deterministic"
        )
        start = time.perf_counter()
        for _ in range(rounds):
            family.build(params)
        elapsed = time.perf_counter() - start
        stats[family.name] = {
            "nodes": first.node_count,
            "links": first.link_count,
            "rounds": rounds,
            "build_ms": round(1_000.0 * elapsed / rounds, 3),
            "builds_per_s": round(rounds / elapsed, 1) if elapsed > 0 else None,
        }
    assert len(stats) >= 11
    stats["families"] = len(stats)
    stats["deterministic"] = deterministic
    return stats


def test_bench_topology_build_throughput(benchmark):
    stats = run_once(benchmark, suite, smoke=SMOKE)
    assert stats["families"] >= 11

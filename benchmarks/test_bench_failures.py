"""Benchmark abl-failures: link-failure repair through the orchestrator.

Operational extension: fail ring links under both schedulers and measure
how many affected tasks the control loop re-routes.  Asserted shape: the
mesh's spare paths let most tasks survive, and the flexible scheduler's
repaired state consumes less bandwidth (more headroom for the next
failure).

``fault_history_ratio`` (timing, floored ``<= 2.0``) prices one
``handle_link_failure`` + ``handle_link_restore`` on a span carrying
live tasks and background flows, with 5,000 COMPLETED tasks in the
database divided by the same with none.  The history is inserted
straight into the database, so both sides see identical data planes
and routing caches and only the history length differs.  Each side is
the best of ``REPEATS`` fresh orchestrators.  The handlers look
affected tasks up by owner, so the ratio stays near 1; a handler that
rescans the history per owner costs O(owners x history) and breaks the
floor.

``fault_cache_revalidations`` (shape, floored ``== 0``) counts the path
cache's revalidations during one ``handle_link_failure`` +
``handle_link_restore`` of a hub span, with a warm cache of 600 entries
and no task on the span.  Fault handlers leave validation to the next
lookup, so the count is 0; a handler that revalidates the cache eagerly
costs one revalidation per entry per event.
"""

import dataclasses
import gc
import time

from repro.bench import bench_suite
from repro.core.flexible import FlexibleScheduler
from repro.experiments.extensions import run_failure_recovery
from repro.network.routing import HopWeightSpec, LatencyWeightSpec, get_cache
from repro.network.topology import metro_mesh, scale_free
from repro.orchestrator.database import TaskStatus
from repro.orchestrator.orchestrator import Orchestrator
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from benchmarks.conftest import run_once

HISTORY = 5_000
LIVE_TASKS = 2
BACKGROUND_FLOWS = 30
REPEATS = 7
SPAN = ("RT-0", "RT-1")


def _fault_cycle_s(history: int) -> float:
    """Wall time of one fail + restore of ``SPAN`` after ``history`` tasks."""
    network = metro_mesh(n_sites=10, servers_per_site=2)
    orchestrator = Orchestrator(
        network, FlexibleScheduler(), container_gflops=5_000.0
    )
    servers = network.servers()
    task = AITask(
        task_id="live-0",
        model=get_model("resnet18"),
        global_node=servers[0],
        local_nodes=tuple(servers[1:6]),
        rounds=3,
    )
    for i in range(BACKGROUND_FLOWS):
        network.reserve_edge(*SPAN, 1.0, f"bg-{i:02d}")
    for i in range(LIVE_TASKS):
        orchestrator.admit(dataclasses.replace(task, task_id=f"live-{i}"))
    for i in range(history):
        record = orchestrator.database.insert_task(
            dataclasses.replace(task, task_id=f"done-{i:05d}")
        )
        record.status = TaskStatus.COMPLETED
    gc.collect()
    start = time.perf_counter()
    outcomes = orchestrator.handle_link_failure(*SPAN)
    orchestrator.handle_link_restore(*SPAN)
    elapsed = time.perf_counter() - start
    assert sorted(outcomes) == [f"live-{i}" for i in range(LIVE_TASKS)]
    return elapsed


def fault_history_ratio(repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` fault cycle with history over without."""
    with_history = []
    without = []
    for _ in range(repeats):
        # Interleaved, so machine drift hits both sides alike.
        without.append(_fault_cycle_s(0))
        with_history.append(_fault_cycle_s(HISTORY))
    return min(with_history) / min(without)


def fault_cache_revalidations() -> int:
    """Cache revalidations one fail + restore of an idle hub span runs."""
    network = scale_free(n_routers=150, seed=5)
    orchestrator = Orchestrator(network, FlexibleScheduler())
    cache = get_cache(network)
    for spec in (LatencyWeightSpec(network), HopWeightSpec(network)):
        cache.batched_sssp(network.node_names(), spec)
    assert len(cache) >= 500
    hub = max(network.node_names(), key=lambda name: len(network.neighbors(name)))
    span = (hub, network.neighbors(hub)[0])
    before = cache.stats.snapshot()
    assert orchestrator.handle_link_failure(*span) == {}
    orchestrator.handle_link_restore(*span)
    return cache.stats.delta(before)["revalidations"]


@bench_suite("failures", headline="repair_rate")
def suite(smoke: bool = False) -> dict:
    """Failure recovery: the mesh keeps most tasks running through cuts."""
    result = run_failure_recovery(n_tasks=10, n_failures=4)
    by_scheduler = {row["scheduler"]: row for row in result.rows}

    for row in result.rows:
        assert row["repaired"] <= row["affected"]
        # A chorded mesh should keep at least half the tasks running
        # through four failures.
        assert row["running_after"] >= row["running_before"] // 2

    assert (
        by_scheduler["flexible-mst"]["bandwidth_after_gbps"]
        < by_scheduler["fixed-spff"]["bandwidth_after_gbps"]
    )
    flexible = by_scheduler["flexible-mst"]
    return {
        "affected": flexible["affected"],
        "repaired": flexible["repaired"],
        "repair_rate": round(
            flexible["repaired"] / flexible["affected"], 4
        )
        if flexible["affected"]
        else 1.0,
        "flexible_bandwidth_after_gbps": round(
            flexible["bandwidth_after_gbps"], 4
        ),
        "fault_history_ratio": round(
            fault_history_ratio(3 if smoke else REPEATS), 3
        ),
        "fault_cache_revalidations": fault_cache_revalidations(),
    }


def test_failure_recovery(benchmark):
    run_once(benchmark, suite)

"""Benchmark: schedule() throughput with and without the routing cache.

Drives the flexible scheduler through the protocol-serving hot loop —
schedule a task, release it, next task (exactly what
``repro.scenarios.sweep.engine._serve`` does per run) — over scale-free
instances at N=50 and N=200, once with the production scheduler (the
CSR kernel behind the epoch-keyed
:class:`~repro.network.routing.PathCache`) and once with a
benchmark-local reference, :class:`UncachedScheduler`, that runs the
same CSR kernel with no cache.  Asserts the two passes produce
byte-identical schedules (the cache's contract) and records both wall
times and their ratio.  Results land in ``BENCH_HISTORY.jsonl`` through
the ``repro bench`` harness; ``repro bench verify`` floors the
production side alone, ``scale_free_200.cached_s``: the ratio compares
production with a bench-local reference, so it says how much the cache
saves, not how fast scheduling is (see BASELINES.md).

Smoke mode (``repro bench run --smoke``, or ``REPRO_BENCH_SMOKE=1``
under pytest) shrinks the workloads to a few tasks (seconds, not
minutes); verify skips timing floors on smoke records, leaving the
identity check.
"""

from __future__ import annotations

import os
import time

from repro.bench import bench_suite
from repro.core.flexible import FlexibleScheduler
from repro.errors import NoPathError, SchedulingError
from repro.network import csr, routing
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.topology import scale_free
from repro.sim.rng import RandomStreams
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from benchmarks.conftest import assert_floors, run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DEMAND_GBPS = 4.0


def _campaigns(smoke: bool):
    """(n_routers, n_tasks, n_locals) per campaign; smoke shrinks the load."""
    return {
        50: (50, 6, 5) if smoke else (50, 40, 8),
        200: (200, 4, 6) if smoke else (200, 40, 16),
    }


def _workload(network, n_tasks: int, n_locals: int, seed: int = 7):
    """A deterministic stream of fixed-demand tasks on random terminals."""
    rng = RandomStreams(seed).stream("placement")
    servers = network.servers()
    tasks = []
    for index in range(n_tasks):
        chosen = rng.sample(servers, n_locals + 1)
        tasks.append(
            AITask(
                task_id=f"bench-{index}",
                model=get_model("resnet18"),
                global_node=chosen[0],
                local_nodes=tuple(chosen[1:]),
                demand_gbps=DEMAND_GBPS,
            )
        )
    return tasks


def _connected(network) -> bool:
    """Sanity check: every node reaches the first server.

    One uncached CSR tree, so neither side of the timed comparison
    starts with a warm path cache.
    """
    source = network.servers()[0]
    tree = csr.sssp_csr(network, source, routing.LatencyWeightSpec(network))
    return all(tree.reaches(name) for name in network.node_names())


class UncachedScheduler(FlexibleScheduler):
    """The reference side: every tree from the CSR kernel, uncached."""

    def _build_tree(self, task, network):
        builder = AuxiliaryGraphBuilder(
            network,
            demand_gbps=task.demand_gbps,
            owner=task.task_id,
            weights=self.weights,
        )
        try:
            return csr.terminal_tree_csr(
                network, task.global_node, list(task.local_nodes), builder
            )
        except NoPathError as exc:
            raise SchedulingError(f"task {task.task_id!r}: {exc}") from exc


def _campaign(n_routers: int, n_tasks: int, n_locals: int, scheduler_cls):
    """Run the schedule/release loop; return (elapsed_s, signatures, stats)."""
    network = scale_free(
        n_routers=n_routers, m_links=2, seed=1, servers_per_site=1
    )
    assert _connected(network)
    scheduler = scheduler_cls()
    tasks = _workload(network, n_tasks, n_locals)
    signatures = []
    start = time.perf_counter()
    for task in tasks:
        schedule = scheduler.schedule(task, network)
        signatures.append(
            (
                sorted(schedule.broadcast_tree.parent.items()),
                sorted(schedule.upload_tree.parent.items()),
                sorted(schedule.broadcast_edge_rates.items()),
                sorted(schedule.upload_edge_rates.items()),
            )
        )
        scheduler.release(schedule, network)
    elapsed = time.perf_counter() - start
    cache = routing.peek_cache(network)
    stats = cache.stats.as_dict() if cache is not None else None
    return elapsed, signatures, stats


def _run_campaign(n_routers: int, *, smoke: bool):
    """One campaign's metrics; asserts the two schedulers agree."""
    n, n_tasks, n_locals = _campaigns(smoke)[n_routers]
    uncached_s, uncached_sig, _ = _campaign(
        n, n_tasks, n_locals, UncachedScheduler
    )
    cached_s, cached_sig, stats = _campaign(
        n, n_tasks, n_locals, FlexibleScheduler
    )
    identical = cached_sig == uncached_sig
    assert identical, (
        "cached and uncached schedulers diverged on the same workload"
    )
    speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
    return {
        "n_routers": n,
        "tasks": n_tasks,
        "n_locals": n_locals,
        "demand_gbps": DEMAND_GBPS,
        "uncached_s": round(uncached_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
        "cache_stats": stats,
    }


@bench_suite("scheduler", headline="scale_free_200.cached_s")
def suite(smoke: bool = False) -> dict:
    """Routing-cache schedule throughput on scale-free N=50 and N=200."""
    return {
        "scale_free_50": _run_campaign(50, smoke=smoke),
        "scale_free_200": _run_campaign(200, smoke=smoke),
    }


def test_bench_scheduler_cache_scale_free_50(benchmark):
    """Small instance: identity always, timing recorded, no floor."""
    run_once(benchmark, _run_campaign, 50, smoke=SMOKE)


def test_bench_scheduler_cache_scale_free_200(benchmark):
    """The acceptance campaign: byte-identical, and the schedule-time floor."""
    metrics = run_once(benchmark, _run_campaign, 200, smoke=SMOKE)
    assert_floors("scheduler", "scale_free_200", metrics, SMOKE)

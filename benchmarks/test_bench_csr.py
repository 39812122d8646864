"""Benchmark: CSR routing-kernel throughput, identity, and scale.

Three campaigns over the scale-free family, all through the unified
``repro bench`` harness:

* ``scale_free_200`` — the acceptance campaign: the same 40-task
  schedule/release loop run by the production scheduler (the CSR kernel
  behind the epoch-keyed :class:`PathCache`) and by a benchmark-local
  reference, :class:`ObjectOracleScheduler`, which builds every tree
  with the uncached object kernel.  It asserts the schedules are
  byte-identical (the kernel's contract, asserted always) and that
  production clears the 5x throughput floor over the reference (timing,
  skipped on smoke records).  Wall clocks are best-of-three per side —
  single passes on shared machines are too noisy to gate a ratio on.
* ``scale_free_1k`` — N=1000 schedule throughput (tasks/s) plus the
  hub-congestion probe: schedules held un-released so utilisation
  accumulates, then the busiest edge around the top-degree router read
  via :func:`repro.network.state.node_utilisations`.
* ``scale_free_5k`` — the scale smoke (runs even in smoke mode — it is
  the CI acceptance for the N=5000 regime): build the ``scale-free-5k``
  family instance, take the CSR snapshot, and push a few schedules
  through it.

``repro bench verify`` gates the identity and speedup floors against
the newest history record (see BASELINES.md).
"""

from __future__ import annotations

import os
import time

from repro.bench import bench_suite
from repro.core.flexible import FlexibleScheduler
from repro.errors import NoPathError, SchedulingError
from repro.network import csr, routing
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.paths import tree_from_metric_closure
from repro.network.state import node_utilisations
from repro.network.topologies import scale_free
from repro.network.topology import build_topology
from repro.sim.rng import RandomStreams
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from benchmarks.conftest import run_once

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DEMAND_GBPS = 4.0
SPEEDUP_FLOOR = 5.0


def _skip_timing(smoke: bool) -> bool:
    return smoke or os.environ.get("REPRO_SKIP_TIMING_ASSERTS") == "1"


def _workload(network, n_tasks, n_locals, seed=7, demand=DEMAND_GBPS):
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
                demand_gbps=demand,
            )
        )
    return tasks


class ObjectOracleScheduler(FlexibleScheduler):
    """The reference side: every tree from the uncached object kernel.

    One :func:`repro.network.routing.sssp` per terminal (except the
    last) over the auxiliary builder's scalar weight function, then the
    shared :func:`~repro.network.paths.tree_from_metric_closure`
    finisher — the construction the production path must reproduce byte
    for byte.
    """

    def _build_tree(self, task, network):
        builder = AuxiliaryGraphBuilder(
            network,
            demand_gbps=task.demand_gbps,
            owner=task.task_id,
            weights=self.weights,
        )
        weight = builder.weight_fn()
        terminals = list(dict.fromkeys([task.global_node, *task.local_nodes]))
        closure = {}
        try:
            for i, a in enumerate(terminals[:-1]):
                tree = routing.sssp(network, a, weight)
                for b in terminals[i + 1 :]:
                    closure[(a, b)] = tree.path_to(b)
        except NoPathError as exc:
            raise SchedulingError(f"task {task.task_id!r}: {exc}") from exc
        return tree_from_metric_closure(
            task.global_node, terminals, closure, weight
        )


def _campaign(n_routers, n_tasks, n_locals, scheduler_cls):
    """One schedule/release pass; returns (elapsed_s, signatures)."""
    network = scale_free(
        n_routers=n_routers, m_links=2, seed=1, servers_per_site=1
    )
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
    return elapsed, signatures


def _speedup_campaign(smoke: bool, *, assert_speedup: bool = True):
    """Object-kernel reference vs production at N=200: identity + floor."""
    n, n_tasks, n_locals = (200, 4, 6) if smoke else (200, 40, 16)
    passes = 1 if smoke else 3
    object_times, csr_times = [], []
    object_sig = csr_sig = None
    for _ in range(passes):
        elapsed, sig = _campaign(n, n_tasks, n_locals, ObjectOracleScheduler)
        object_times.append(elapsed)
        assert object_sig is None or sig == object_sig
        object_sig = sig
    for _ in range(passes):
        elapsed, sig = _campaign(n, n_tasks, n_locals, FlexibleScheduler)
        csr_times.append(elapsed)
        assert csr_sig is None or sig == csr_sig
        csr_sig = sig
    identical = object_sig == csr_sig
    assert identical, (
        "production and the object-kernel reference diverged on the same "
        "workload"
    )
    object_s, csr_s = min(object_times), min(csr_times)
    speedup = object_s / csr_s if csr_s > 0 else float("inf")
    if assert_speedup and not _skip_timing(smoke):
        assert speedup >= SPEEDUP_FLOOR, (
            f"speedup {speedup:.2f}x over the object-kernel reference below "
            f"the {SPEEDUP_FLOOR}x floor on scale-free N={n}"
        )
    return {
        "n_routers": n,
        "tasks": n_tasks,
        "n_locals": n_locals,
        "demand_gbps": DEMAND_GBPS,
        "object_s": round(object_s, 4),
        "csr_s": round(csr_s, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
    }


def _hub_campaign(smoke: bool):
    """N=1000 CSR throughput and hub congestion under held schedules."""
    n, n_tasks, n_locals = (1000, 3, 6) if smoke else (1000, 20, 12)
    network = scale_free(
        n_routers=n, m_links=2, seed=1, servers_per_site=1
    )
    scheduler = FlexibleScheduler()
    tasks = _workload(network, n_tasks, n_locals, demand=1.0)
    schedules = []
    start = time.perf_counter()
    for task in tasks:
        schedules.append(scheduler.schedule(task, network))
    elapsed = time.perf_counter() - start
    hub = max(network.node_names(), key=lambda name: len(network.neighbors(name)))
    utilisations = node_utilisations(network, hub)
    hub_utilisation = max(utilisations.values(), default=0.0)
    for schedule in schedules:
        scheduler.release(schedule, network)
    stats = routing.peek_cache(network).stats.as_dict()
    return {
        "n_routers": n,
        "tasks": n_tasks,
        "n_locals": n_locals,
        "schedule_s": round(elapsed, 4),
        "tasks_per_s": round(n_tasks / elapsed, 2) if elapsed > 0 else 0.0,
        "hub_degree": len(network.neighbors(hub)),
        "hub_utilisation": round(hub_utilisation, 6),
        "cache_stats": stats,
    }


def _scale_campaign(smoke: bool):
    """The N=5000 scale smoke: family build + snapshot + a few schedules.

    Runs the same workload in smoke mode — this campaign *is* the CI
    acceptance that the N=5000 regime builds and schedules at all.
    """
    n_tasks, n_locals = 3, 8
    start = time.perf_counter()
    network = build_topology("scale-free-5k", {})
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    snapshot = csr.get_snapshot(network)
    snapshot_s = time.perf_counter() - start
    scheduler = FlexibleScheduler()
    tasks = _workload(network, n_tasks, n_locals, seed=11, demand=1.0)
    start = time.perf_counter()
    for task in tasks:
        schedule = scheduler.schedule(task, network)
        scheduler.release(schedule, network)
    schedule_s = time.perf_counter() - start
    return {
        "n_nodes": network.node_count,
        "n_links": network.link_count,
        "csr_edges": snapshot.m,
        "build_s": round(build_s, 4),
        "snapshot_s": round(snapshot_s, 4),
        "schedule_s": round(schedule_s, 4),
        "scheduled": n_tasks,
    }


@bench_suite("csr", headline="scale_free_200.speedup")
def suite(smoke: bool = False) -> dict:
    """CSR kernel identity, throughput, and scale campaigns."""
    return {
        "scale_free_200": _speedup_campaign(smoke),
        "scale_free_1k": _hub_campaign(smoke),
        "scale_free_5k": _scale_campaign(smoke),
    }


def test_bench_csr_speedup_scale_free_200(benchmark):
    """The acceptance campaign: byte-identical and >= 5x with CSR."""
    run_once(benchmark, _speedup_campaign, SMOKE)


def test_bench_csr_hub_congestion_scale_free_1k(benchmark):
    """N=1000 throughput and hub congestion under held schedules."""
    run_once(benchmark, _hub_campaign, SMOKE)


def test_bench_csr_scale_free_5k_smoke(benchmark):
    """N=5000 family build + snapshot + schedule smoke."""
    run_once(benchmark, _scale_campaign, SMOKE)

"""Benchmark: CSR routing-kernel throughput, identity, and scale.

Campaigns over the scale-free family, plus one ring, all through the
unified ``repro bench`` harness:

* ``scale_free_200`` — the acceptance campaign: the same 40-task
  schedule/release loop run by the production scheduler (the CSR kernel
  behind the epoch-keyed :class:`PathCache`) and by a benchmark-local
  reference, :class:`ObjectOracleScheduler`, which builds every tree
  with the uncached object-graph oracle (``tests/oracle.py``).  It asserts the schedules are
  byte-identical (the kernel's contract, asserted always) and records
  production's throughput speedup over the reference.  Wall clocks are best-of-three per side —
  single passes on shared machines are too noisy to gate a ratio on.
* ``scale_free_1k`` — N=1000 schedule throughput (tasks/s) plus the
  hub-congestion probe: schedules held un-released so utilisation
  accumulates, then the busiest edge around the top-degree router read
  via :func:`repro.network.state.node_utilisations`.
* ``scale_free_5k`` — the scale smoke (runs even in smoke mode — it is
  the CI acceptance for the N=5000 regime): build the ``scale-free-5k``
  family instance, take the CSR snapshot, and push a few schedules
  through it.
* ``scale_free_1k.vector_*`` and ``ring_1k`` — the size-dispatched
  solve (``kernel._solve``) against the heap kernel (``kernel._run``)
  on the same auxiliary weight arrays: every source's
  ``(dist, prev)`` must be identical (shape), and the summed
  best-of-k time per source gives the speedup (timing).  The N=1000
  scale-free graph is where the vectorised solve pays; the 1,000-node
  ring is its worst case (the sweep budget runs out and the source
  goes to the heap kernel), which must never be more than 2x slower.
  ``vector_ranked`` counts the sources whose dispatched solve needed
  settle ranks (``csr.vector_ranked``): on the scale-free aux weights
  every predecessor is a lone exact tie, so it must read 0 (shape).
* ``scale_free_1k.inject_*`` — static background-flow injection on the
  N=1000 hub fabric: :meth:`TrafficGenerator.inject_static` (one
  batched CSR routing pass, snapshot build included) against a
  reference that routes each flow with the oracle's object Dijkstra
  and reserves it before drawing the next.  Flows
  and every link's reservation ledger must be identical (shape); the
  best-of-k wall times, sides interleaved, give the speedup (timing).

The suite asserts identity and shape only; ``repro bench verify``
gates the identity and speedup floors in ``repro.bench.verify.FLOORS``
against the newest history record (see BASELINES.md), and the pytest
wrappers hold each campaign to the same entries.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro import obs
from repro.bench import bench_suite
from repro.core.flexible import FlexibleScheduler
from repro.errors import NoPathError, SchedulingError
from repro.network import csr, routing
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.csr import kernel
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.paths import latency_weight
from repro.network.state import node_utilisations
from repro.network.topology import scale_free
from repro.network.topology import build_topology
from repro.sim.rng import RandomStreams
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model
from repro.traffic.generator import TrafficGenerator

from benchmarks.conftest import assert_floors, run_once
from tests.oracle import ObjectOracleCache, dijkstra

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DEMAND_GBPS = 4.0
INJECT_FLOWS = 50
INJECT_SEED = 42


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
    """The reference side: every tree from the uncached object oracle.

    The oracle's terminal tree runs one object-graph SSSP per terminal
    (except the last) over the auxiliary builder's scalar weight
    function, then the shared
    :func:`~repro.network.paths.tree_from_metric_closure` finisher — the
    construction the production path must reproduce byte for byte.
    """

    def _build_tree(self, task, network):
        builder = AuxiliaryGraphBuilder(
            network,
            demand_gbps=task.demand_gbps,
            owner=task.task_id,
            weights=self.weights,
        )
        try:
            return ObjectOracleCache(network).terminal_tree(
                task.global_node, task.local_nodes, builder
            )
        except NoPathError as exc:
            raise SchedulingError(f"task {task.task_id!r}: {exc}") from exc


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


def _speedup_campaign(smoke: bool):
    """Object-kernel reference vs production at N=200: identity + speedup."""
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


def _ring(n_nodes):
    """A plain ring of routers: the deepest graph per edge there is."""
    network = Network(f"ring-{n_nodes}")
    for i in range(n_nodes):
        network.add_node(f"R{i}", NodeKind.ROUTER)
    for i in range(n_nodes):
        network.add_link(
            f"R{i}", f"R{(i + 1) % n_nodes}", 100.0, distance_km=1.0 + i % 7
        )
    return network


def _best_totals_s(solvers, sources, repeats):
    """Per solver, the summed best-of-``repeats`` time over ``sources``.

    The solvers take turns on each source, so a drift in host speed
    lands on every side of the ratio alike.
    """
    totals = [0.0] * len(solvers)
    for source in sources:
        best = [math.inf] * len(solvers)
        for _ in range(repeats):
            for i, solve in enumerate(solvers):
                start = time.perf_counter()
                solve(source)
                best[i] = min(best[i], time.perf_counter() - start)
        totals = [total + b for total, b in zip(totals, best)]
    return totals


def _vector_campaign(network, smoke: bool):
    """Size-dispatched solve vs the heap kernel on one aux weight array."""
    n_sources, repeats = (4, 1) if smoke else (20, 7)
    snapshot = csr.get_snapshot(network)
    builder = AuxiliaryGraphBuilder(network, demand_gbps=DEMAND_GBPS)
    array = csr.weight_array(snapshot, builder.cache_token())
    weights = array.tolist()
    sources = list(range(0, snapshot.n, snapshot.n // n_sources))[:n_sources]

    def heap(source):
        return kernel._run(snapshot.indptr, snapshot.indices, weights, source)

    def dispatched(source):
        return kernel._solve(snapshot, source, weights, array)

    def as_lists(solved):
        return [np.asarray(part).tolist() for part in solved]

    identical = True
    gave_up = 0
    ranked = 0
    for source in sources:
        expected = as_lists(heap(source))
        vector = kernel._vector_solve(snapshot, array, source)
        if vector is None:
            gave_up += 1
        else:
            identical &= as_lists(vector) == expected
        with obs.enabled() as registry:
            solved = dispatched(source)
        counters = registry.summary()["counters"]
        ranked += bool(counters.get("csr.vector_ranked"))
        identical &= as_lists(solved) == expected
    assert identical, "the dispatched solve diverged from the heap kernel"
    heap_s, solve_s = _best_totals_s((heap, dispatched), sources, repeats)
    speedup = heap_s / solve_s if solve_s > 0 else float("inf")
    return {
        "vector_edges": snapshot.m,
        "vector_sources": len(sources),
        "vector_gave_up": gave_up,
        "vector_ranked": ranked,
        "vector_heap_ms": round(heap_s / len(sources) * 1e3, 4),
        "vector_solve_ms": round(solve_s / len(sources) * 1e3, 4),
        "vector_speedup": round(speedup, 2),
        "vector_identical": identical,
    }


def _vector_scale_free_1k(smoke: bool):
    network = scale_free(n_routers=1000, m_links=2, seed=1, servers_per_site=1)
    return _vector_campaign(network, smoke)


def _vector_ring_1k(smoke: bool):
    return _vector_campaign(_ring(1000), smoke)


def _object_inject_static(network, seed, n_flows, rate_gbps=5.0):
    """The reference injection: one oracle object Dijkstra per flow.

    Draws the generator's pairs and flow ids from the same stream and
    routes and reserves each flow before drawing the next, as static
    injection did before it routed on the CSR kernel.
    """
    rng = RandomStreams(seed).stream("traffic")
    endpoints = network.node_names(NodeKind.ROUTER)
    flows = []
    for index in range(n_flows):
        src, dst = rng.sample(endpoints, 2)
        flow_id = f"bg-{index}"
        try:
            path = dijkstra(network, src, dst, latency_weight(network)).nodes
        except NoPathError:
            continue
        rate = rate_gbps
        for edge in zip(path, path[1:]):
            rate = min(rate, network.residual_gbps(*edge))
        if rate <= 1e-6:
            continue
        network.reserve_path(list(path), rate, flow_id)
        flows.append((flow_id, path, rate))
    return flows


def _production_inject_static(network, seed, n_flows):
    generator = TrafficGenerator(network, RandomStreams(seed))
    return [
        (flow.flow_id, flow.path, flow.rate_gbps)
        for flow in generator.inject_static(n_flows)
    ]


def _ledger(network):
    """Every link's per-direction, per-owner reservations."""
    return [
        (src, dst, list(link.reservations(src, dst)))
        for link in network.links()
        for src, dst in ((link.u, link.v), (link.v, link.u))
    ]


def _inject_campaign(smoke: bool):
    """Batched background injection vs per-flow object Dijkstra at N=1000.

    Each pass injects into a fresh copy of the fabric (copying is not
    timed), so the production side pays its CSR snapshot build every
    time; the two sides alternate so host drift hits both alike.
    """
    repeats = 1 if smoke else 7
    base = scale_free(n_routers=1000, m_links=2, seed=1, servers_per_site=1)
    sides = (_object_inject_static, _production_inject_static)
    best = [math.inf, math.inf]
    outcomes = [None, None]
    for _ in range(repeats):
        for i, inject in enumerate(sides):
            network = base.copy_topology()
            start = time.perf_counter()
            flows = inject(network, INJECT_SEED, INJECT_FLOWS)
            best[i] = min(best[i], time.perf_counter() - start)
            outcome = (flows, _ledger(network))
            assert outcomes[i] is None or outcomes[i] == outcome
            outcomes[i] = outcome
    identical = outcomes[0] == outcomes[1]
    assert identical, "batched injection diverged from per-flow Dijkstra"
    object_s, csr_s = best
    speedup = object_s / csr_s if csr_s > 0 else float("inf")
    return {
        "inject_flows": len(outcomes[1][0]),
        "inject_object_ms": round(object_s * 1e3, 3),
        "inject_csr_ms": round(csr_s * 1e3, 3),
        "inject_speedup": round(speedup, 2),
        "inject_identical": identical,
    }


@bench_suite("csr", headline="scale_free_200.speedup")
def suite(smoke: bool = False) -> dict:
    """CSR kernel identity, throughput, and scale campaigns."""
    return {
        "scale_free_200": _speedup_campaign(smoke),
        "scale_free_1k": {
            **_hub_campaign(smoke),
            **_vector_scale_free_1k(smoke),
            **_inject_campaign(smoke),
        },
        "scale_free_5k": _scale_campaign(smoke),
        "ring_1k": _vector_ring_1k(smoke),
    }


def test_bench_csr_speedup_scale_free_200(benchmark):
    """The acceptance campaign: byte-identical, and the speedup floor."""
    metrics = run_once(benchmark, _speedup_campaign, SMOKE)
    assert_floors("csr", "scale_free_200", metrics, SMOKE)


def test_bench_csr_hub_congestion_scale_free_1k(benchmark):
    """N=1000 throughput and hub congestion under held schedules."""
    metrics = run_once(benchmark, _hub_campaign, SMOKE)
    assert_floors("csr", "scale_free_1k", metrics, SMOKE)


def test_bench_csr_scale_free_5k_smoke(benchmark):
    """N=5000 family build + snapshot + schedule smoke."""
    metrics = run_once(benchmark, _scale_campaign, SMOKE)
    assert_floors("csr", "scale_free_5k", metrics, SMOKE)


def test_bench_csr_vector_scale_free_1k(benchmark):
    """Vectorised solve identical to the heap kernel, and its floor at N=1000."""
    metrics = run_once(benchmark, _vector_scale_free_1k, SMOKE)
    assert_floors("csr", "scale_free_1k", metrics, SMOKE)


def test_bench_csr_vector_ring_1k(benchmark):
    """The ring gives up to the heap kernel and holds its floor."""
    metrics = run_once(benchmark, _vector_ring_1k, SMOKE)
    assert_floors("csr", "ring_1k", metrics, SMOKE)


def test_bench_csr_inject_scale_free_1k(benchmark):
    """Batched background injection identical to per-flow Dijkstra, and its floor."""
    metrics = run_once(benchmark, _inject_campaign, SMOKE)
    assert_floors("csr", "scale_free_1k", metrics, SMOKE)

"""Micro-benchmarks of the algorithmic kernels.

These time the primitives every experiment leans on — shortest paths,
Yen's k-shortest paths, terminal-tree construction, and one end-to-end
schedule of each scheduler — so performance regressions in the kernels
show up without running a full figure sweep.  The routing primitives
are the production CSR kernel's uncached entry points under latency
weights, so every repeat recomputes (snapshot refresh and weight
lowering included) instead of hitting a path cache.  The registered
suite reports per-primitive milliseconds into ``BENCH_HISTORY.jsonl``;
smoke mode drops the repeat count.
"""

import time

import pytest

from repro.bench import bench_suite
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.network import csr
from repro.network.routing import LatencyWeightSpec
from repro.network.topology import metro_mesh, random_geometric
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model


@pytest.fixture(scope="module")
def large_net():
    return random_geometric(60, seed=5, servers_per_site=1)


@pytest.fixture(scope="module")
def mesh():
    return metro_mesh(n_sites=16, servers_per_site=2)


def shortest_path(net, source, destination):
    (result,) = csr.shortest_paths_csr(
        net, [(source, destination)], LatencyWeightSpec(net)
    )
    return result


def k_shortest_paths(net, source, destination, k):
    return csr.k_shortest_paths_csr(
        net, source, destination, k, LatencyWeightSpec(net)
    )


def terminal_tree(net, root, terminals):
    return csr.terminal_tree_csr(net, root, terminals, LatencyWeightSpec(net))


def make_task(net, n_locals, demand=10.0):
    servers = net.servers()
    return AITask(
        task_id="bench",
        model=get_model("resnet50"),
        global_node=servers[0],
        local_nodes=tuple(servers[1 : n_locals + 1]),
        demand_gbps=demand,
    )


@bench_suite("algorithms", headline="flexible_schedule_ms")
def suite(smoke: bool = False) -> dict:
    """Kernel micro-benchmarks: CSR Dijkstra, Yen, terminal trees, schedules."""
    rounds = 3 if smoke else 25
    large_net = random_geometric(60, seed=5, servers_per_site=1)
    mesh = metro_mesh(n_sites=16, servers_per_site=2)
    servers = large_net.servers()
    task = make_task(mesh, 10)
    fixed, flexible = FixedScheduler(), FlexibleScheduler()

    def timed_ms(fn):
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        return round(1_000.0 * (time.perf_counter() - start) / rounds, 4)

    path = shortest_path(large_net, servers[0], servers[-1])
    assert path.nodes[0] == servers[0]
    assert len(k_shortest_paths(large_net, servers[0], servers[-1], 4)) >= 1
    tree = terminal_tree(large_net, servers[0], servers[1:11])
    assert len(tree.nodes) >= 11
    assert fixed.schedule(task, mesh.copy_topology()).consumed_bandwidth_gbps > 0
    assert flexible.schedule(task, mesh.copy_topology()).is_tree_based
    return {
        "rounds": rounds,
        "dijkstra_ms": timed_ms(
            lambda: shortest_path(large_net, servers[0], servers[-1])
        ),
        "yen_k4_ms": timed_ms(
            lambda: k_shortest_paths(large_net, servers[0], servers[-1], 4)
        ),
        "terminal_tree_ms": timed_ms(
            lambda: terminal_tree(large_net, servers[0], servers[1:11])
        ),
        "fixed_schedule_ms": timed_ms(
            lambda: fixed.schedule(task, mesh.copy_topology())
        ),
        "flexible_schedule_ms": timed_ms(
            lambda: flexible.schedule(task, mesh.copy_topology())
        ),
    }


def test_dijkstra_60_nodes(benchmark, large_net):
    servers = large_net.servers()
    result = benchmark(shortest_path, large_net, servers[0], servers[-1])
    assert result.nodes[0] == servers[0]


def test_yen_k4_60_nodes(benchmark, large_net):
    servers = large_net.servers()
    paths = benchmark(k_shortest_paths, large_net, servers[0], servers[-1], 4)
    assert len(paths) >= 1


def test_terminal_tree_10_terminals(benchmark, large_net):
    servers = large_net.servers()
    tree = benchmark(terminal_tree, large_net, servers[0], servers[1:11])
    assert len(tree.nodes) >= 11


def test_fixed_scheduler_end_to_end(benchmark, mesh):
    task = make_task(mesh, 10)
    scheduler = FixedScheduler()

    def run():
        net = mesh.copy_topology()
        return scheduler.schedule(task, net)

    schedule = benchmark(run)
    assert schedule.consumed_bandwidth_gbps > 0


def test_flexible_scheduler_end_to_end(benchmark, mesh):
    task = make_task(mesh, 10)
    scheduler = FlexibleScheduler()

    def run():
        net = mesh.copy_topology()
        return scheduler.schedule(task, net)

    schedule = benchmark(run)
    assert schedule.is_tree_based

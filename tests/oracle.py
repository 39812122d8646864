"""The object-graph reference oracle for the production routing path.

Production routes every query on the CSR kernel (:mod:`repro.network.csr`),
mostly through the network's :class:`~repro.network.routing.PathCache`.
This module is the reference it is checked against, and the only copy
of the object-graph relaxation loop: :func:`sssp`, one heap loop over
``Network.neighbors`` and a scalar weight function, uncached.  Its
point-to-point :func:`dijkstra` is the same loop with an early exit, the
ban-aware search driving Yen's shared control flow
(:func:`k_shortest_paths`) wraps :func:`dijkstra`, and
:func:`terminal_tree` builds the full metric closure, one path per
terminal pair read off one :func:`sssp` tree per terminal, and finishes
it with :func:`closure_finisher`: Prim over the closure dict, then every
chosen closure path grafted in tree order.  The package's finisher
(:func:`~repro.network.paths.tree_from_metric_closure`) reads the same
MST off the trees without building the closure, and is checked against
this one.

:class:`ObjectOracleCache` answers the path cache's queries with these
over ``spec.weight_fn()``, and :func:`object_oracle` swaps it in for
:func:`~repro.network.routing.get_cache`, so a production scheduler's
own control flow can be replayed against the oracle and compared.

:class:`ReferenceEvaluator` is the same idea for schedule evaluation: the
per-local evaluator that walks every local's path again, pricing each
hop with its own ``transfer_ms`` call and re-reading link latencies and
aggregation-plan records, against which the one-pass-per-tree
production evaluator is checked field for field.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager

import pytest

from repro.core.evaluation import ScheduleEvaluator, train_round_ms
from repro.core.metrics import RoundLatency
from repro.errors import NoPathError, SchedulingError, TopologyError
from repro.network import paths, routing
from repro.network.paths import (
    PathResult,
    ShortestPathTree,
    TreeResult,
    latency_weight,
    path_latency_ms,
)
from repro.tasks.aggregation import UploadAggregationPlan


def sssp(network, source, weight, destination=None):
    """Dijkstra from ``source``; stop once ``destination`` is settled.

    Ties break by a monotone push counter, neighbours are relaxed in
    ``Network.neighbors`` order, and a relaxation must beat the
    incumbent by more than ``1e-15`` — the contract the CSR kernel's
    ``_run`` transliterates.  Without a destination the tree is complete;
    with one, ``path_to(destination)`` is the point-to-point answer
    (its predecessor chain is settled).
    """
    network.node(source)
    if destination is not None:
        network.node(destination)
    distance = {source: 0.0}
    previous = {}
    counter = itertools.count()
    frontier = [(0.0, next(counter), source)]
    settled = set()
    while frontier:
        dist, _tick, current = heapq.heappop(frontier)
        if current in settled:
            continue
        settled.add(current)
        if current == destination:
            break
        for neighbor in network.neighbors(current):
            if neighbor in settled:
                continue
            edge_cost = weight(current, neighbor)
            if math.isinf(edge_cost):
                continue
            if edge_cost < 0:
                raise TopologyError(
                    f"negative edge weight {edge_cost} on {current}->{neighbor}"
                )
            candidate = dist + edge_cost
            if candidate < distance.get(neighbor, math.inf) - 1e-15:
                distance[neighbor] = candidate
                previous[neighbor] = current
                heapq.heappush(frontier, (candidate, next(counter), neighbor))
    names = list(distance)
    index = {name: i for i, name in enumerate(names)}
    prev = [-1] * len(names)
    for name, parent in previous.items():
        prev[index[name]] = index[parent]
    return ShortestPathTree(source, names, index, list(distance.values()), prev)


def dijkstra(network, source, destination, weight=None):
    """Least-weight path; raises ``NoPathError`` when unreachable."""
    if weight is None:
        weight = latency_weight(network)
    return sssp(network, source, weight, destination).path_to(destination)


def _ban_aware_search(network, weight):
    """Yen's ``search`` hook: :func:`dijkstra` skipping banned edges/nodes."""

    def search(src, dst, banned_edges, banned_nodes):
        if not banned_edges and not banned_nodes:
            return dijkstra(network, src, dst, weight)

        def spur_weight(a, b):
            if (a, b) in banned_edges:
                return math.inf
            if b in banned_nodes or a in banned_nodes:
                return math.inf
            return weight(a, b)

        return dijkstra(network, src, dst, spur_weight)

    return search


def k_shortest_paths(network, source, destination, k, weight=None):
    """Yen's shared control flow over the object search."""
    if weight is None:
        weight = latency_weight(network)
    return paths.k_shortest_paths(
        source,
        destination,
        k,
        weight,
        search=_ban_aware_search(network, weight),
    )


def terminal_tree(network, root, terminals, weight=None):
    """MST on the metric closure, one :func:`sssp` per terminal but the last."""
    if weight is None:
        weight = latency_weight(network)
    terminal_list = list(dict.fromkeys([root, *terminals]))
    for terminal in terminal_list:
        network.node(terminal)
    if len(terminal_list) == 1:
        return TreeResult(root=root, parent={}, weight=0.0)
    return closure_finisher(
        root,
        terminal_list,
        metric_closure(
            terminal_list,
            (sssp(network, a, weight) for a in terminal_list[:-1]),
        ),
        weight,
    )


def metric_closure(terminal_list, trees):
    """One :class:`PathResult` per ordered terminal pair ``(a, b)``.

    ``a`` comes before ``b`` in ``terminal_list``; ``trees`` yields the
    tree of each terminal but the last, in order, and is read lazily:
    the first unreachable pair raises ``NoPathError`` before the next
    tree is read.
    """
    closure = {}
    for i, tree in zip(range(len(terminal_list) - 1), trees):
        for b in terminal_list[i + 1 :]:
            closure[(terminal_list[i], b)] = tree.path_to(b)
    return closure


def closure_finisher(root, terminal_list, closure, weight):
    """MST over a metric-closure dict, expanded to physical hops.

    The reference construction: Prim over the closure weights (heap
    order ``(weight, push tick)``, from the root), then each chosen
    closure path, the reverse direction derived by reversal, grafted
    rootward in tree order, keeping a node's first parent.
    """

    def closure_path(a, b):
        if (a, b) in closure:
            return closure[(a, b)]
        reverse = closure[(b, a)]
        return PathResult(nodes=tuple(reversed(reverse.nodes)), weight=reverse.weight)

    in_tree = {root}
    counter = itertools.count()
    frontier = []

    def push(a):
        for b in terminal_list:
            if b in in_tree:
                continue
            path = closure.get((a, b))
            if path is None:
                path = closure[(b, a)]
            heapq.heappush(frontier, (path.weight, next(counter), b, a))

    push(root)
    closure_parent = {}
    while frontier and len(in_tree) < len(terminal_list):
        cost, _tick, node, via = heapq.heappop(frontier)
        if math.isinf(cost):
            break
        if node in in_tree:
            continue
        in_tree.add(node)
        closure_parent[node] = via
        push(node)
    missing = [t for t in terminal_list if t not in in_tree]
    if missing:
        raise NoPathError(root, missing[0], f"terminal {missing[0]!r} unreachable")

    parent = {}

    def graft(path_nodes):
        for towards_root, away in zip(path_nodes, path_nodes[1:]):
            if away == root or away in parent:
                continue
            parent[away] = towards_root

    # Expand closure edges in tree order so every graft starts from a
    # node that is already attached to the root.
    entry_order = [root]
    remaining = dict(closure_parent)
    while remaining:
        progressed = False
        for node, via in list(remaining.items()):
            if via in entry_order:
                entry_order.append(node)
                del remaining[node]
                progressed = True
        if not progressed:
            raise TopologyError("closure parent structure is not a tree")

    for node in entry_order[1:]:
        graft(closure_path(closure_parent[node], node).nodes)

    total = sum(weight(child, par) for child, par in parent.items())
    tree = TreeResult(root=root, parent=parent, weight=total)
    for t in terminal_list:
        tree.path_to_root(t)
    return tree


class ObjectOracleCache:
    """Uncached object-graph stand-in for a network's ``PathCache``."""

    def __init__(self, network) -> None:
        self._network = network

    def sssp(self, source, spec):
        return sssp(self._network, source, spec.weight_fn())

    def batched_sssp(self, sources, spec):
        return {source: self.sssp(source, spec) for source in sources}

    def shortest_path(self, source, destination, spec):
        return dijkstra(self._network, source, destination, spec.weight_fn())

    def k_shortest_paths(self, source, destination, k, spec):
        return k_shortest_paths(
            self._network, source, destination, k, spec.weight_fn()
        )

    def terminal_tree(self, root, terminals, spec):
        return terminal_tree(self._network, root, terminals, spec.weight_fn())


@contextmanager
def object_oracle():
    """Route every scheduler query through :class:`ObjectOracleCache`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "get_cache", ObjectOracleCache)
        yield


class ReferenceEvaluator(ScheduleEvaluator):
    """Per-local schedule evaluation: every path priced from scratch.

    Overrides the broadcast and upload procedures with the straight
    per-local walk (``report`` combines them as in production; the
    per-report terms production hands its procedures, the training times
    and the link latency memo, are ignored and recomputed here):
    propagation is ``path_latency_ms`` of each path, every hop is one
    ``transfer_ms`` call, and merge time and relay flags are looked up
    again for every path through a node.  ``round_latency`` composes the
    round from those terms itself, where production reads it off
    ``report``.
    """

    def _train_ms(self, task, local):
        return train_round_ms(task, local, self._config, self._speed_fn)

    def round_latency(self, schedule):
        task = schedule.task
        broadcast_ms, _ = self._broadcast(schedule)
        upload_completion, _, _ = self._upload(schedule)
        training_ms = max(
            self._train_ms(task, local) for local in task.local_nodes
        )
        return RoundLatency(
            broadcast_ms=broadcast_ms,
            training_ms=training_ms,
            upload_ms=max(0.0, upload_completion - training_ms),
            total_ms=(
                broadcast_ms
                + upload_completion
                + self._config.control_overhead_ms
            ),
        )

    def _path_ms(self, path, stage_sizes_mb, stage_rates):
        prop = path_latency_ms(self._network, path)
        rtt = 2.0 * prop
        slowest = 0.0
        for size, rate in zip(stage_sizes_mb, stage_rates):
            slowest = max(
                slowest, self._config.transport.transfer_ms(size, rate, rtt)
            )
        return prop + slowest

    def _broadcast(self, schedule, _latency=None):
        task = schedule.task
        size = task.size_mb
        latency = 0.0
        cpu = 0.0
        if schedule.broadcast_tree is None:
            for local in task.local_nodes:
                path = schedule.broadcast_path_of(local)
                rate = schedule.broadcast_flow_rates[local]
                hops = len(path) - 1
                ms = self._path_ms(path, [size] * hops, [rate] * hops)
                latency = max(latency, ms)
                cpu += self._config.transport.endpoint_cpu_ms(size)
            return latency, cpu
        tree = schedule.broadcast_tree
        terminals = set(task.local_nodes)
        for local in task.local_nodes:
            path = schedule.broadcast_path_of(local)
            rates = []
            for src, dst in zip(path, path[1:]):
                key = (src, dst)
                if key not in schedule.broadcast_edge_rates:
                    raise SchedulingError(f"no reserved rate on tree edge {key}")
                rates.append(schedule.broadcast_edge_rates[key])
            ms = self._path_ms(path, [size] * len(rates), rates)
            relays = sum(1 for node in path[1:-1] if node in terminals)
            ms += relays * self._config.relay_overhead_ms
            latency = max(latency, ms)
        cpu = len(tree.edges) * self._config.transport.endpoint_cpu_ms(size)
        return latency, cpu

    def _upload(self, schedule, _train_ms=None, _latency=None):
        task = schedule.task
        size = task.size_mb
        agg = self._config.aggregation
        if schedule.upload_tree is None:
            completion = 0.0
            cpu = 0.0
            for local in task.local_nodes:
                path = schedule.upload_path_of(local)
                rate = schedule.upload_flow_rates[local]
                hops = len(path) - 1
                ms = self._path_ms(path, [size] * hops, [rate] * hops)
                completion = max(completion, self._train_ms(task, local) + ms)
                cpu += self._config.transport.endpoint_cpu_ms(size)
            merges = max(0, task.n_locals - 1)
            completion += agg.merge_ms(size, merges)
            agg_nodes = (task.global_node,) if merges else ()
            return completion, cpu, agg_nodes
        tree = schedule.upload_tree
        plan = UploadAggregationPlan.build(self._network, tree, task.local_nodes)
        terminals = set(task.local_nodes)
        completion = 0.0
        for local in task.local_nodes:
            path = schedule.upload_path_of(local)
            sizes = []
            rates = []
            for src, dst in zip(path, path[1:]):
                key = (src, dst)
                if key not in schedule.upload_edge_rates:
                    raise SchedulingError(f"no reserved rate on tree edge {key}")
                rates.append(schedule.upload_edge_rates[key])
                sizes.append(size * plan.edge_payloads[src])
            ms = self._path_ms(path, sizes, rates)
            merge_ms = sum(
                agg.merge_ms(size, plan.merges[node]) for node in path[1:]
            )
            relays = sum(
                1
                for node in path[1:-1]
                if node in terminals or plan.merges[node] > 0
            )
            ms += merge_ms + relays * self._config.relay_overhead_ms
            completion = max(completion, self._train_ms(task, local) + ms)
        cpu = sum(
            self._config.transport.endpoint_cpu_ms(
                size * plan.edge_payloads[child]
            )
            for child, _parent in tree.edges
        )
        agg_nodes = tuple(sorted(node for node, n in plan.merges.items() if n))
        return completion, cpu, agg_nodes

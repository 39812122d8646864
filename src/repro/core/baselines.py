"""Stronger baselines the poster defers to future work.

The poster: "we take a fixed scheduler using shortest path and first fit
(SPFF) as baselines, while the comparison with stronger baselines will
come as future works."  This module provides two such baselines so the
flexible scheduler can be judged against more than the weakest strawman:

* :class:`KspLoadBalancedScheduler` — like SPFF but each flow picks, among
  the k latency-shortest paths, the one with the most residual capacity
  at its bottleneck.  It fixes SPFF's worst failure (piling every flow
  onto one shortest path) while keeping end-to-end flows and
  root-only aggregation.
* :class:`ChainScheduler` — daisy-chain (sequential) aggregation: a
  single path visits every local model and ends at the global node; each
  hop carries exactly one (partially aggregated) payload.  This is the
  bandwidth-optimal extreme — the chain uses the fewest payload-edges of
  any aggregation topology — but its latency grows linearly in ``k``
  because the chain serialises, which is precisely the trade the MST tree
  balances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import NoPathError, SchedulingError
from ..network import csr, routing
from ..network.graph import Network
from ..network.paths import PathResult, TreeResult, latency_weight
from ..tasks.aggregation import UploadAggregationPlan
from ..tasks.aitask import AITask
from .base import Edge, Scheduler, TaskSchedule, traced_schedule
from .fixed import MIN_RATE_GBPS


class KspLoadBalancedScheduler(Scheduler):
    """k-shortest-paths with bottleneck-residual load balancing.

    The k-shortest candidates resolve through the network's
    :class:`~repro.network.routing.PathCache`.

    Args:
        k: candidate paths per flow (Yen's algorithm).
        min_rate_gbps: admission floor per flow.
    """

    name = "ksp-lb"

    def __init__(self, k: int = 3, min_rate_gbps: float = MIN_RATE_GBPS) -> None:
        if k < 1:
            raise SchedulingError(f"k must be >= 1, got {k}")
        if min_rate_gbps <= 0:
            raise SchedulingError(
                f"min_rate_gbps must be > 0, got {min_rate_gbps}"
            )
        self._k = k
        self._min_rate = min_rate_gbps

    def _best_path(
        self,
        network: Network,
        source: str,
        destination: str,
        planned: Dict[Edge, int],
        demand: float,
    ) -> Tuple[str, ...]:
        """Among k shortest paths, the one with the fattest bottleneck.

        The bottleneck accounts for both live reservations and the flows
        this schedule has already *planned* onto each edge, so this task's
        own flows spread across the candidates.
        """
        candidates = routing.get_cache(network).k_shortest_paths(
            source, destination, self._k, routing.LatencyWeightSpec(network)
        )
        # Vectorised residual gather (same floats as residual_gbps).
        snapshot = csr.get_snapshot(network)
        residual = snapshot.residual_list()
        edge_pos = snapshot.edge_pos

        def bottleneck(path: PathResult) -> float:
            return min(
                residual[edge_pos[(a, b)]] - planned.get((a, b), 0) * demand
                for a, b in zip(path.nodes, path.nodes[1:])
            )

        # Max bottleneck residual; ties broken towards the shorter path
        # (candidates arrive weight-sorted, and max() keeps the first).
        return max(candidates, key=bottleneck).nodes

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        # Phase 1: pick a path per flow, spreading over the k candidates.
        planned: Dict[Edge, int] = {}
        broadcast_paths: Dict[str, Tuple[str, ...]] = {}
        upload_paths: Dict[str, Tuple[str, ...]] = {}
        try:
            for local in task.local_nodes:
                for paths, src, dst in (
                    (broadcast_paths, task.global_node, local),
                    (upload_paths, local, task.global_node),
                ):
                    path = self._best_path(
                        network, src, dst, planned, task.demand_gbps
                    )
                    paths[local] = path
                    for edge in zip(path, path[1:]):
                        planned[edge] = planned.get(edge, 0) + 1
        except NoPathError as exc:
            raise SchedulingError(f"task {task.task_id!r}: {exc}") from exc

        # Phase 2: equal-share rates where this task's flows still share
        # an edge (unavoidable on the global node's access link).
        snapshot = csr.get_snapshot(network)
        residual = snapshot.residual_list()
        edge_pos = snapshot.edge_pos

        def flow_rate(path: Tuple[str, ...]) -> float:
            return min(
                [task.demand_gbps]
                + [
                    residual[edge_pos[(a, b)]] / planned[(a, b)]
                    for a, b in zip(path, path[1:])
                ]
            )

        broadcast_rates = {
            local: flow_rate(path) for local, path in broadcast_paths.items()
        }
        upload_rates = {
            local: flow_rate(path) for local, path in upload_paths.items()
        }
        blocked = [
            local
            for local in task.local_nodes
            if broadcast_rates[local] < self._min_rate
            or upload_rates[local] < self._min_rate
        ]
        if blocked:
            raise SchedulingError(
                f"task {task.task_id!r}: locals {blocked} blocked on every "
                f"candidate path"
            )

        broadcast_edges: Dict[Edge, float] = {}
        upload_edges: Dict[Edge, float] = {}
        try:
            for local, path in broadcast_paths.items():
                network.reserve_path(list(path), broadcast_rates[local], task.task_id)
                for edge in zip(path, path[1:]):
                    broadcast_edges[edge] = (
                        broadcast_edges.get(edge, 0.0) + broadcast_rates[local]
                    )
            for local, path in upload_paths.items():
                network.reserve_path(list(path), upload_rates[local], task.task_id)
                for edge in zip(path, path[1:]):
                    upload_edges[edge] = (
                        upload_edges.get(edge, 0.0) + upload_rates[local]
                    )
        except Exception:
            network.release_owner(task.task_id)
            raise
        return TaskSchedule(
            task=task,
            scheduler=self.name,
            broadcast_routes=broadcast_paths,
            upload_routes=upload_paths,
            broadcast_flow_rates=broadcast_rates,
            upload_flow_rates=upload_rates,
            broadcast_edge_rates=broadcast_edges,
            upload_edge_rates=upload_edges,
        )


class ChainScheduler(Scheduler):
    """Daisy-chain aggregation: one path through every local to the root.

    The visiting order is nearest-neighbour on shortest-path latency
    starting from the global node (reversed so the chain *ends* at the
    root for upload), a standard constructive heuristic.  Broadcast and
    upload both use the chain; every chain edge carries exactly one
    payload, giving the minimum possible payload-edge count at the cost of
    O(k) serial depth.
    """

    name = "chain"

    def __init__(self, min_rate_gbps: float = MIN_RATE_GBPS) -> None:
        if min_rate_gbps <= 0:
            raise SchedulingError(
                f"min_rate_gbps must be > 0, got {min_rate_gbps}"
            )
        self._min_rate = min_rate_gbps

    def _visit_order(self, task: AITask, network: Network) -> List[str]:
        """Nearest-neighbour order over terminals, starting at the root.

        Each step scores the whole remaining set against one cached
        single-source tree's distances instead of one point-to-point
        query per (step, candidate) pair.  Same floats — the extracted
        path weight *is* the tree distance.
        """
        remaining = list(task.local_nodes)
        order = [task.global_node]
        spec = routing.LatencyWeightSpec(network)
        cache = routing.get_cache(network)
        while remaining:
            current = order[-1]
            tree = cache.sssp(current, spec)
            scored = []
            for node in remaining:
                if not tree.reaches(node):
                    raise NoPathError(current, node)
                d = tree.distance_to(node)
                scored.append((d, node))
            best = min(scored)[1]
            order.append(best)
            remaining.remove(best)
        return order

    def _chain_tree(self, task: AITask, network: Network) -> TreeResult:
        """A TreeResult whose single branch follows the visit order."""
        order = self._visit_order(task, network)
        cache = routing.get_cache(network)
        spec = routing.LatencyWeightSpec(network)
        weight = latency_weight(network)
        parent: Dict[str, str] = {}
        total = 0.0
        for closer, farther in zip(order, order[1:]):
            segment = cache.shortest_path(closer, farther, spec)
            for towards_root, away in zip(segment.nodes, segment.nodes[1:]):
                if away == task.global_node or away in parent:
                    continue
                parent[away] = towards_root
                total += weight(away, towards_root)
        tree = TreeResult(root=task.global_node, parent=parent, weight=total)
        for local in task.local_nodes:
            tree.path_to_root(local)  # validates connectivity
        return tree

    def _reserve(
        self,
        task: AITask,
        network: Network,
        tree: TreeResult,
        *,
        towards_root: bool,
        multiplicity: Optional[Dict[str, int]] = None,
    ) -> Dict[Edge, float]:
        rates: Dict[Edge, float] = {}
        for child, parent in tree.edges:
            payloads = (multiplicity or {}).get(child, 1)
            demand = task.demand_gbps * payloads
            edge: Edge = (child, parent) if towards_root else (parent, child)
            held = network.link(*edge).owner_gbps(edge[0], edge[1], task.task_id)
            rate = min(max(demand - held, 0.0), network.residual_gbps(*edge))
            if held + rate < self._min_rate:
                network.release_owner(task.task_id)
                raise SchedulingError(
                    f"task {task.task_id!r}: chain edge {edge} has no "
                    "residual capacity"
                )
            if rate > 0:
                network.reserve_edge(edge[0], edge[1], rate, task.task_id)
            rates[edge] = held + rate
        return rates

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        tree = self._chain_tree(task, network)
        broadcast_rates = self._reserve(task, network, tree, towards_root=False)
        plan = UploadAggregationPlan(network, tree, task.local_nodes)
        multiplicity = {
            child: plan.payloads_on_edge(child) for child, _ in tree.edges
        }
        upload_rates = self._reserve(
            task, network, tree, towards_root=True, multiplicity=multiplicity
        )
        return TaskSchedule(
            task=task,
            scheduler=self.name,
            broadcast_tree=tree,
            upload_tree=tree,
            broadcast_edge_rates=broadcast_rates,
            upload_edge_rates=upload_rates,
        )

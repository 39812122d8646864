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

from typing import Dict, List, Tuple

from ..errors import NoPathError, SchedulingError
from ..network import csr, routing
from ..network.graph import Network
from ..network.paths import PathResult, TreeResult, latency_weight
from ..tasks.aitask import AITask
from .base import MIN_RATE_GBPS, Edge, Scheduler, TaskSchedule, traced_schedule
from .fixed import reserve_flows
from .flexible import reserve_trees


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
        super().__init__(min_rate_gbps)
        self._k = k

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
        return reserve_flows(
            self.name,
            task,
            network,
            self._min_rate,
            broadcast_paths,
            upload_paths,
            " on every candidate path",
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

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        tree = self._chain_tree(task, network)
        return reserve_trees(
            self.name, task, network, self._min_rate, tree, lambda: tree
        )

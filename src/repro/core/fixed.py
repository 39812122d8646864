"""The baseline: fixed scheduler with shortest path and first fit (SPFF).

Per the poster: "the fixed scheduler considers a fixed set of direct
communication links between the global model and each local model.  AI
model weights are transmitted using end-to-end links in broadcast and
upload procedures, and then only aggregated in the node with a global
model."

Concretely, for a task with global node G and locals L1..Lk:

1. route every ``G -> Li`` (broadcast) and ``Li -> G`` (upload) on the
   latency-shortest path, ignoring what the other flows of the same task
   pick (that is what makes it *fixed*);
2. allocate rate first-fit: every flow asks for the task's demand, and
   when the task's own flows contend on a shared edge (they always do on
   G's access link) each gets an equal share of the residual capacity;
3. aggregation happens only at G, serialising ``k - 1`` merges.

The equal-share step is the charitable reading of "first fit" — a literal
greedy first-come allocation would starve later locals entirely and make
the baseline look worse than the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import NoPathError, SchedulingError
from ..network import csr, routing
from ..network.graph import Network
from ..tasks.aitask import AITask
from .base import Edge, Scheduler, TaskSchedule, traced_schedule

#: Flows allocated less than this rate are considered blocked.
MIN_RATE_GBPS = 1e-3


class FixedScheduler(Scheduler):
    """Shortest-path + first-fit baseline (aggregation only at the root).

    Shortest paths resolve through the network's
    :class:`~repro.network.routing.PathCache` (latency weights survive
    reservations, so hits are common).

    Args:
        min_rate_gbps: admission floor; scheduling fails if any flow
            would receive less than this.
    """

    name = "fixed-spff"

    def __init__(self, min_rate_gbps: float = MIN_RATE_GBPS) -> None:
        if min_rate_gbps <= 0:
            raise SchedulingError(
                f"min_rate_gbps must be > 0, got {min_rate_gbps}"
            )
        self._min_rate = min_rate_gbps

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        cache = routing.get_cache(network)
        spec = routing.LatencyWeightSpec(network)
        broadcast_paths: Dict[str, Tuple[str, ...]] = {}
        upload_paths: Dict[str, Tuple[str, ...]] = {}
        try:
            for local in task.local_nodes:
                broadcast_paths[local] = cache.shortest_path(
                    task.global_node, local, spec
                ).nodes
                upload_paths[local] = cache.shortest_path(
                    local, task.global_node, spec
                ).nodes
        except NoPathError as exc:
            raise SchedulingError(
                f"task {task.task_id!r}: {exc}"
            ) from exc

        # Count how many of this task's flows cross each directed edge.
        edge_flows: Dict[Edge, int] = {}
        for paths in (broadcast_paths, upload_paths):
            for path in paths.values():
                for edge in zip(path, path[1:]):
                    edge_flows[edge] = edge_flows.get(edge, 0) + 1

        # Equal-share rate per flow: bounded by the demand and by the
        # residual capacity divided by this task's flow count on every
        # edge the flow crosses.  The residuals are gathered in one
        # vectorised subtraction over the CSR snapshot (same floats as
        # ``residual_gbps``: capacity minus recorded use).
        snapshot = csr.get_snapshot(network)
        residual = snapshot.residual_list()
        edge_pos = snapshot.edge_pos

        def flow_rate(path: Tuple[str, ...]) -> float:
            rate = task.demand_gbps
            for edge in zip(path, path[1:]):
                share = residual[edge_pos[edge]] / edge_flows[edge]
                rate = min(rate, share)
            return rate

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
                f"task {task.task_id!r}: locals {blocked} blocked; "
                "no residual capacity on their shortest paths"
            )

        # Reserve.  Per-edge totals are the sums of per-flow rates, which
        # by construction never exceed the residual observed above.
        broadcast_edges: Dict[Edge, float] = {}
        upload_edges: Dict[Edge, float] = {}
        reserved: List[Edge] = []
        try:
            for local, path in broadcast_paths.items():
                for edge in zip(path, path[1:]):
                    network.reserve_edge(*edge, broadcast_rates[local], task.task_id)
                    reserved.append(edge)
                    broadcast_edges[edge] = (
                        broadcast_edges.get(edge, 0.0) + broadcast_rates[local]
                    )
            for local, path in upload_paths.items():
                for edge in zip(path, path[1:]):
                    network.reserve_edge(*edge, upload_rates[local], task.task_id)
                    reserved.append(edge)
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

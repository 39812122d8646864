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

Step 2's rates and the reservation are :func:`reserve_flows`, the one
path reservation: the ksp-lb baseline
(:class:`~repro.core.baselines.KspLoadBalancedScheduler`) reserves
through it too.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import NoPathError, SchedulingError
from ..network import csr, routing
from ..network.graph import Network
from ..tasks.aitask import AITask
from .base import Edge, Scheduler, TaskSchedule, traced_schedule

Route = Tuple[str, ...]


def reserve_flows(
    name: str,
    task: AITask,
    network: Network,
    min_rate: float,
    broadcast_paths: Dict[str, Route],
    upload_paths: Dict[str, Route],
    blocked_reason: str,
) -> TaskSchedule:
    """Reserve a path schedule: one equal-share flow per local and procedure.

    Every flow gets the task's demand, bounded on each edge it crosses by
    the edge's residual capacity divided by the number of this task's
    flows there.  A local whose broadcast or upload flow falls under
    ``min_rate`` blocks the task (the error names the locals, then
    ``blocked_reason``) before anything is reserved.  Per-edge totals
    are the sums of per-flow rates, which by construction never exceed
    the residual observed here.
    """
    edge_flows: Dict[Edge, int] = {}
    for paths in (broadcast_paths, upload_paths):
        for path in paths.values():
            for edge in zip(path, path[1:]):
                edge_flows[edge] = edge_flows.get(edge, 0) + 1

    # The residuals are gathered in one vectorised subtraction over the
    # CSR snapshot (same floats as ``residual_gbps``: capacity minus
    # recorded use).
    snapshot = csr.get_snapshot(network)
    residual = snapshot.residual_list()
    edge_pos = snapshot.edge_pos

    def flow_rate(path: Route) -> float:
        rate = task.demand_gbps
        for edge in zip(path, path[1:]):
            rate = min(rate, residual[edge_pos[edge]] / edge_flows[edge])
        return rate

    broadcast_rates = {
        local: flow_rate(path) for local, path in broadcast_paths.items()
    }
    upload_rates = {local: flow_rate(path) for local, path in upload_paths.items()}
    blocked = [
        local
        for local in task.local_nodes
        if broadcast_rates[local] < min_rate or upload_rates[local] < min_rate
    ]
    if blocked:
        raise SchedulingError(
            f"task {task.task_id!r}: locals {blocked} blocked{blocked_reason}"
        )

    broadcast_edges: Dict[Edge, float] = {}
    upload_edges: Dict[Edge, float] = {}
    try:
        for paths, rates, reserved in (
            (broadcast_paths, broadcast_rates, broadcast_edges),
            (upload_paths, upload_rates, upload_edges),
        ):
            for local, path in paths.items():
                for edge in zip(path, path[1:]):
                    network.reserve_edge(*edge, rates[local], task.task_id)
                    reserved[edge] = reserved.get(edge, 0.0) + rates[local]
    except Exception:
        network.release_owner(task.task_id)
        raise

    return TaskSchedule(
        task=task,
        scheduler=name,
        broadcast_routes=broadcast_paths,
        upload_routes=upload_paths,
        broadcast_flow_rates=broadcast_rates,
        upload_flow_rates=upload_rates,
        broadcast_edge_rates=broadcast_edges,
        upload_edge_rates=upload_edges,
    )


class FixedScheduler(Scheduler):
    """Shortest-path + first-fit baseline (aggregation only at the root).

    Shortest paths resolve through the network's
    :class:`~repro.network.routing.PathCache` (latency weights survive
    reservations, so hits are common).
    """

    name = "fixed-spff"

    @traced_schedule
    def schedule(self, task: AITask, network: Network) -> TaskSchedule:
        cache = routing.get_cache(network)
        spec = routing.LatencyWeightSpec(network)
        broadcast_paths: Dict[str, Route] = {}
        upload_paths: Dict[str, Route] = {}
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
        return reserve_flows(
            self.name,
            task,
            network,
            self._min_rate,
            broadcast_paths,
            upload_paths,
            "; no residual capacity on their shortest paths",
        )

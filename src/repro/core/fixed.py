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
through it too.  It reserves each directed edge once, for the sum of
the task's flow rates there (broadcast and upload flows on one edge
share the owner's bucket entry), not once per flow and hop.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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

    The reservation makes one ``Link.reserve`` per directed edge, in
    first-use order, of that edge's summed flow rates; ``task`` must
    hold nothing yet (a fresh owner's bucket entry then equals the
    total that per-hop reserves would have accumulated).
    """
    # Each path's directed edges, built once and reused by every pass.
    broadcast_hops = {
        local: list(zip(path, path[1:])) for local, path in broadcast_paths.items()
    }
    upload_hops = {
        local: list(zip(path, path[1:])) for local, path in upload_paths.items()
    }
    edge_flows: Dict[Edge, int] = {}
    for hops in (broadcast_hops, upload_hops):
        for edges in hops.values():
            for edge in edges:
                edge_flows[edge] = edge_flows.get(edge, 0) + 1

    # The residuals are gathered in one vectorised subtraction over the
    # CSR snapshot (same floats as ``residual_gbps``: capacity minus
    # recorded use).
    snapshot = csr.get_snapshot(network)
    residual = snapshot.residual_list()
    edge_pos = snapshot.edge_pos

    def flow_rate(edges: List[Edge]) -> float:
        rate = task.demand_gbps
        for edge in edges:
            rate = min(rate, residual[edge_pos[edge]] / edge_flows[edge])
        return rate

    broadcast_rates = {
        local: flow_rate(edges) for local, edges in broadcast_hops.items()
    }
    upload_rates = {local: flow_rate(edges) for local, edges in upload_hops.items()}
    blocked = [
        local
        for local in task.local_nodes
        if broadcast_rates[local] < min_rate or upload_rates[local] < min_rate
    ]
    if blocked:
        raise SchedulingError(
            f"task {task.task_id!r}: locals {blocked} blocked{blocked_reason}"
        )

    # Each procedure's edge map, and each directed edge's total over
    # both procedures, sum the flow rates in one chain: broadcast locals,
    # then upload locals, hop by hop.  That is the order per-hop reserves
    # would add them to the owner's bucket, so one reserve per edge of
    # the total leaves the same float at the same bucket position.
    broadcast_edges: Dict[Edge, float] = {}
    upload_edges: Dict[Edge, float] = {}
    totals: Dict[Edge, float] = {}
    for hops, rates, reserved in (
        (broadcast_hops, broadcast_rates, broadcast_edges),
        (upload_hops, upload_rates, upload_edges),
    ):
        for local, edges in hops.items():
            rate = rates[local]
            for edge in edges:
                reserved[edge] = reserved.get(edge, 0.0) + rate
                totals[edge] = totals.get(edge, 0.0) + rate
    try:
        for (src, dst), total in totals.items():
            network.reserve_edge(src, dst, total, task.task_id)
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
        root = task.global_node
        try:
            # The global node's tree first: a local it cannot reach
            # blocks the task before any local's tree is solved.
            broadcast = cache.sssp(root, spec)
            broadcast_paths: Dict[str, Route] = {
                local: broadcast.path_to(local).nodes
                for local in task.local_nodes
            }
            uploads = cache.batched_sssp(task.local_nodes, spec)
            upload_paths: Dict[str, Route] = {
                local: uploads[local].path_to(root).nodes
                for local in task.local_nodes
            }
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

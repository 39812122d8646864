"""Latency, bandwidth, and CPU evaluation of a :class:`TaskSchedule`.

The evaluator reproduces the paper's Fig. 3 metrics:

* **total latency** — per round: broadcast, local training, upload with
  aggregation; total = rounds x round + per-round control overhead;
* **consumed bandwidth** — summed reserved rate over directed edges
  (taken straight from the schedule).

Modelling choices (documented because they shape the results):

* multi-hop transfers are **chunk-pipelined** (cut-through): weights
  stream through relays in MTU-sized chunks, so an end-to-end transfer
  costs the path's summed propagation plus *one* serialisation at the
  bottleneck stage — not one serialisation per hop.  This matches both
  line-rate router replication for broadcast trees and streaming
  in-network aggregation (SwitchML/ATP-style) for upload trees;
* every *relay point* a payload materialises at (an intermediate model
  endpoint or an aggregation node) adds ``relay_overhead_ms``;
* a merge at an aggregation node adds the aggregation model's per-merge
  time to every upload path crossing that node (streamed merges still
  execute the arithmetic);
* the fixed scheduler's root performs all ``k - 1`` merges itself,
  serialised, after the last upload lands;
* training readiness gates each source's upload, so slow trainers sit on
  the critical path exactly once;
* tree edges below non-aggregating branch points (e.g. ROADMs) carry one
  payload *per descendant source*; the pipelined stage time scales with
  that multiplicity.

Cost: a report walks each tree once.  Every local climbs only to its
nearest ancestor already done and extends that node's record of its
path (edge latencies, distinct stages, merge times, relay count); each
path's floats are still summed in the per-local order with ``sum()``, so
the result equals a per-local walk bit for bit.  Each local's training
time, each distinct endpoint CPU term and (on path-based schedules) each
link's latency is computed once per report.  The orchestrator then
computes a report once per schedule: ``Orchestrator.evaluate`` keeps it
on the task record until the schedule is released.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulingError, TopologyError
from ..network.graph import Network
from ..network.paths import TreeResult
from ..tasks.aggregation import AggregationModel
from ..tasks.aitask import AITask
from ..transport.protocols import TcpTransport, Transport
from .base import Edge, TaskSchedule
from .metrics import RoundLatency, TaskReport

#: Training speed lookup: node name -> GFLOPS available to the local model.
SpeedFn = Callable[[str], float]


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the evaluation model.

    Attributes:
        transport: protocol model for every weight transfer.
        aggregation: per-merge cost model.
        training_gflops: accelerator speed assumed at every model node
            (overridden per node by the evaluator's ``speed_fn``).
        relay_overhead_ms: added per relay point a payload materialises
            at (chunk-pipelining bookkeeping, buffer turnover).
        control_overhead_ms: orchestrator time per round (path setup,
            telemetry) added once per round.
    """

    transport: Transport = field(default_factory=TcpTransport)
    aggregation: AggregationModel = field(default_factory=AggregationModel)
    training_gflops: float = 50_000.0
    relay_overhead_ms: float = 0.05
    control_overhead_ms: float = 0.0


def train_round_ms(
    task: AITask,
    node: str,
    config: EvaluationConfig,
    speed_fn: Optional[SpeedFn] = None,
) -> float:
    """One round of local training at ``node``, in ms.

    The speed is ``speed_fn(node)`` when given, else the config's
    ``training_gflops``; GFLOP / GFLOPS gives seconds, hence the 1000.
    The analytic evaluator and the event-driven executor both price
    training here.

    Raises:
        SchedulingError: if the speed is not above 0.
    """
    speed = speed_fn(node) if speed_fn is not None else config.training_gflops
    if speed <= 0:
        raise SchedulingError(f"node {node!r}: training speed must be > 0")
    return 1000.0 * task.model.train_gflop_per_round / speed


class ScheduleEvaluator:
    """Evaluates schedules over a network under one configuration.

    Args:
        network: the topology (latencies and node capabilities; the rates
            come from the schedule itself).
        config: evaluation model parameters.
        speed_fn: optional per-node training speed override.
    """

    def __init__(
        self,
        network: Network,
        config: Optional[EvaluationConfig] = None,
        speed_fn: Optional[SpeedFn] = None,
    ) -> None:
        self._network = network
        self._config = config or EvaluationConfig()
        self._speed_fn = speed_fn

    @property
    def config(self) -> EvaluationConfig:
        return self._config

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _pipelined_path_ms(
        self, prop: float, stages: Tuple[Tuple[float, float], ...]
    ) -> float:
        """Latency of a chunk-pipelined transfer with propagation ``prop``.

        ``stages`` holds the path's distinct ``(size_mb, rate)`` hops.
        Total time = summed propagation + the slowest stage's transfer
        time (which includes the protocol's handshake and loss effects at
        the path's end-to-end RTT).  ``transfer_ms`` is pure and ``max``
        order-free, so each distinct stage is priced once.
        """
        rtt = 2.0 * prop
        transfer_ms = self._config.transport.transfer_ms
        slowest = 0.0
        for size, rate in stages:
            slowest = max(slowest, transfer_ms(size, rate, rtt))
        return prop + slowest

    def _link_ms(self, latency: Dict[Edge, float], src: str, dst: str) -> float:
        """Latency of link ``src``-``dst`` through the report's memo.

        ``latency`` holds the links a report has read, under both
        directions, so each link is read once per report whichever
        direction or procedure crosses it first.
        """
        ms = latency.get((src, dst))
        if ms is None:
            ms = self._network.edge_latency_ms(src, dst)
            latency[(src, dst)] = latency[(dst, src)] = ms
        return ms

    def _path_prop_ms(
        self, path: Tuple[str, ...], latency: Dict[Edge, float]
    ) -> float:
        """Summed propagation along ``path``, first hop first."""
        hops = []
        for edge in zip(path, path[1:]):
            ms = latency.get(edge)
            hops.append(ms if ms is not None else self._link_ms(latency, *edge))
        return sum(hops)

    @staticmethod
    def _edge_rate(rates: Dict[Edge, float], src: str, dst: str) -> float:
        try:
            return rates[(src, dst)]
        except KeyError:
            raise SchedulingError(
                f"no reserved rate on tree edge {(src, dst)}"
            ) from None

    @staticmethod
    def _walk_up(
        tree: TreeResult, local: str, done: Dict[str, tuple]
    ) -> List[str]:
        """``local`` and its ancestors up to the first node in ``done``.

        Raises the :class:`TopologyError` ``tree.path_to_root(local)``
        raises: a local cut off from the root, or a parent cycle (a walk
        longer than the tree has edges repeats a node).
        """
        parent = tree.parent
        segment: List[str] = []
        node = local
        while node not in done:
            segment.append(node)
            up = parent.get(node)
            if up is None:
                raise TopologyError(
                    f"node {local!r} is not connected to root {tree.root!r}"
                )
            if len(segment) > len(parent):
                raise TopologyError(
                    f"cycle detected while walking {local!r} to root"
                )
            node = up
        return segment

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def _broadcast(
        self, schedule: TaskSchedule, latency: Dict[Edge, float]
    ) -> Tuple[float, float]:
        """(procedure latency, endpoint cpu) of the broadcast procedure."""
        task = schedule.task
        size = task.size_mb
        transport = self._config.transport
        latency_ms = 0.0

        if schedule.broadcast_tree is None:
            cpu = 0.0
            cpu_ms = transport.endpoint_cpu_ms(size)
            for local in task.local_nodes:
                path = schedule.broadcast_path_of(local)
                stage = (size, schedule.broadcast_flow_rates[local])
                prop = self._path_prop_ms(path, latency)
                ms = self._pipelined_path_ms(
                    prop, (stage,) if len(path) > 1 else ()
                )
                latency_ms = max(latency_ms, ms)
                cpu += cpu_ms
            return latency_ms, cpu

        tree = schedule.broadcast_tree
        parent = tree.parent
        rates = schedule.broadcast_edge_rates
        terminals = set(task.local_nodes)
        relay_ms = self._config.relay_overhead_ms
        # Per tree node, for its root -> node path: the edge latencies in
        # path order, the distinct stages in first-seen order, and the
        # relays strictly between the root and the node.  Each local only
        # extends the record of its nearest finished ancestor; the path
        # still sums root-first with sum(), as path_latency_ms does (a
        # running prefix sum would not match sum() on Python >= 3.12,
        # which compensates float additions).
        done: Dict[str, tuple] = {tree.root: ((), (), 0)}
        for local in task.local_nodes:
            for node in reversed(self._walk_up(tree, local, done)):
                up = parent[node]
                lats, stages, relays = done[up]
                stage = (size, self._edge_rate(rates, up, node))
                done[node] = (
                    lats + (self._link_ms(latency, up, node),),
                    stages if stage in stages else stages + (stage,),
                    relays + (up != tree.root and up in terminals),
                )
            lats, stages, relays = done[local]
            ms = self._pipelined_path_ms(sum(lats), stages)
            # Intermediate model endpoints relay at application level.
            ms += relays * relay_ms
            latency_ms = max(latency_ms, ms)
        # Endpoint CPU: one send/receive pair per tree edge (the payload
        # crosses each edge exactly once thanks to in-network replication).
        cpu = len(parent) * transport.endpoint_cpu_ms(size)
        return latency_ms, cpu

    # ------------------------------------------------------------------
    # Upload (training readiness gates each source)
    # ------------------------------------------------------------------
    def _upload(
        self,
        schedule: TaskSchedule,
        train_ms: List[float],
        latency: Dict[Edge, float],
    ) -> Tuple[float, float, Tuple[str, ...]]:
        """(completion incl. training, endpoint cpu, aggregation nodes).

        ``train_ms`` holds each local's training time, in local order.
        """
        task = schedule.task
        size = task.size_mb
        agg = self._config.aggregation
        transport = self._config.transport
        completion = 0.0

        plan = schedule.upload_plan
        if plan is None:
            # Fixed: k end-to-end uploads, then k-1 serialised merges at G.
            cpu = 0.0
            cpu_ms = transport.endpoint_cpu_ms(size)
            for local, train in zip(task.local_nodes, train_ms):
                path = schedule.upload_path_of(local)
                stage = (size, schedule.upload_flow_rates[local])
                prop = self._path_prop_ms(path, latency)
                ms = self._pipelined_path_ms(
                    prop, (stage,) if len(path) > 1 else ()
                )
                completion = max(completion, train + ms)
                cpu += cpu_ms
            merges = max(0, task.n_locals - 1)
            completion += agg.merge_ms(size, merges)
            agg_nodes = (task.global_node,) if merges else ()
            return completion, cpu, agg_nodes

        tree = plan.tree
        root = tree.root
        parent = tree.parent
        rates = schedule.upload_edge_rates
        payloads = plan.edge_payloads
        terminals = set(task.local_nodes)
        relay_ms = self._config.relay_overhead_ms
        # Per tree node, computed once: its (merge time, relay flag).
        node_terms: Dict[str, Tuple[float, bool]] = {}
        # Per tree node, for its node -> root path: the edge latencies in
        # path order, the distinct stages in first-seen order, the merge
        # times of every node above it, and the relays strictly between
        # the node and the root.  Each path still sums from the local
        # upward, as the per-path formulas do.
        done: Dict[str, tuple] = {root: ((), (), (), 0)}
        for local, train in zip(task.local_nodes, train_ms):
            # Read the new edges bottom-up, in the per-path lookup order,
            # then extend each finished ancestor's record top-down.
            edges = []
            for node in self._walk_up(tree, local, done):
                up = parent[node]
                rate = self._edge_rate(rates, node, up)
                stage = (size * payloads[node], rate)
                ms = self._link_ms(latency, node, up)
                terms = node_terms.get(up)
                if terms is None:
                    merges = plan.merges[up]
                    terms = node_terms[up] = (
                        agg.merge_ms(size, merges),
                        up in terminals or merges > 0,
                    )
                edges.append((node, up, ms, stage, terms))
            for node, up, ms, stage, (merge_ms, relay) in reversed(edges):
                lats, stages, merge_terms, relays = done[up]
                if stages[:1] != (stage,):
                    # First-seen order from this node up: its stage leads.
                    stages = (stage,) + tuple(s for s in stages if s != stage)
                done[node] = (
                    (ms,) + lats,
                    stages,
                    (merge_ms,) + merge_terms,
                    relays + (up != root and relay),
                )
            lats, stages, merge_terms, relays = done[local]
            ms = self._pipelined_path_ms(sum(lats), stages)
            # Merge compute and relay turnover along the way up.
            ms += sum(merge_terms) + relays * relay_ms
            completion = max(completion, train + ms)
        # Endpoint CPU: one send/receive pair per payload crossing each
        # tree edge (aggregated payloads cross once), priced once per
        # payload count and summed in tree edge order.
        cpu_of: Dict[int, float] = {}
        cpu_terms = []
        for child in sorted(parent):
            count = payloads[child]
            if count not in cpu_of:
                cpu_of[count] = transport.endpoint_cpu_ms(size * count)
            cpu_terms.append(cpu_of[count])
        cpu = sum(cpu_terms)
        return completion, cpu, plan.aggregation_nodes

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def round_latency(self, schedule: TaskSchedule) -> RoundLatency:
        """Latency breakdown of one training round."""
        return self.report(schedule).round_latency

    def report(self, schedule: TaskSchedule) -> TaskReport:
        """Full evaluation of a scheduled task."""
        task = schedule.task
        latency: Dict[Edge, float] = {}
        broadcast_ms, broadcast_cpu = self._broadcast(schedule, latency)
        train_ms = [
            train_round_ms(task, local, self._config, self._speed_fn)
            for local in task.local_nodes
        ]
        upload_completion, upload_cpu, agg_nodes = self._upload(
            schedule, train_ms, latency
        )
        training_ms = max(train_ms)
        round_total = (
            broadcast_ms + upload_completion + self._config.control_overhead_ms
        )
        round_latency = RoundLatency(
            broadcast_ms=broadcast_ms,
            training_ms=training_ms,
            upload_ms=max(0.0, upload_completion - training_ms),
            total_ms=round_total,
        )
        return TaskReport(
            task_id=task.task_id,
            scheduler=schedule.scheduler,
            n_locals=task.n_locals,
            round_latency=round_latency,
            total_latency_ms=task.rounds * round_total,
            consumed_bandwidth_gbps=schedule.consumed_bandwidth_gbps,
            endpoint_cpu_ms=broadcast_cpu + upload_cpu,
            aggregation_nodes=agg_nodes,
        )

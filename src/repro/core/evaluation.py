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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..errors import SchedulingError
from ..network.graph import Network
from ..network.paths import path_latency_ms
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
    def _train_ms(self, task: AITask, node: str) -> float:
        speed = (
            self._speed_fn(node)
            if self._speed_fn is not None
            else self._config.training_gflops
        )
        if speed <= 0:
            raise SchedulingError(f"node {node!r}: training speed must be > 0")
        return 1000.0 * task.model.train_gflop_per_round / speed

    def _pipelined_path_ms(
        self, prop: float, stages: Iterable[Tuple[float, float]]
    ) -> float:
        """Latency of a chunk-pipelined transfer with propagation ``prop``.

        ``stages`` yields each hop's ``(size_mb, rate)``.  Total time =
        summed propagation + the slowest stage's transfer time (which
        includes the protocol's handshake and loss effects at the path's
        end-to-end RTT).  ``transfer_ms`` is pure and ``max`` order-free,
        so each distinct stage is priced once.
        """
        rtt = 2.0 * prop
        transfer_ms = self._config.transport.transfer_ms
        slowest = 0.0
        for size, rate in dict.fromkeys(stages):
            slowest = max(slowest, transfer_ms(size, rate, rtt))
        return prop + slowest

    @staticmethod
    def _edge_rate(rates: Dict[Edge, float], src: str, dst: str) -> float:
        try:
            return rates[(src, dst)]
        except KeyError:
            raise SchedulingError(
                f"no reserved rate on tree edge {(src, dst)}"
            ) from None

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def _broadcast(self, schedule: TaskSchedule) -> Tuple[float, float]:
        """(procedure latency, endpoint cpu) of the broadcast procedure."""
        task = schedule.task
        size = task.size_mb
        latency = 0.0
        cpu = 0.0

        if schedule.broadcast_tree is None:
            for local in task.local_nodes:
                path = schedule.broadcast_path_of(local)
                stage = (size, schedule.broadcast_flow_rates[local])
                prop = path_latency_ms(self._network, path)
                ms = self._pipelined_path_ms(prop, [stage] * (len(path) - 1))
                latency = max(latency, ms)
                cpu += self._config.transport.endpoint_cpu_ms(size)
            return latency, cpu

        tree = schedule.broadcast_tree
        terminals = set(task.local_nodes)
        # child -> latency of its tree edge, read once per tree.  Each
        # path still sums root-first with sum(), as path_latency_ms does
        # (a running prefix sum would not match sum() on Python >= 3.12,
        # which compensates float additions).
        edge_ms: Dict[str, float] = {}
        for local in task.local_nodes:
            path = schedule.broadcast_path_of(local)  # root -> local
            stages = []
            for src, dst in zip(path, path[1:]):
                rate = self._edge_rate(schedule.broadcast_edge_rates, src, dst)
                stages.append((size, rate))
                if dst not in edge_ms:
                    edge_ms[dst] = self._network.edge_latency_ms(src, dst)
            prop = sum(edge_ms[node] for node in path[1:])
            ms = self._pipelined_path_ms(prop, stages)
            # Intermediate model endpoints relay at application level.
            relays = sum(1 for node in path[1:-1] if node in terminals)
            ms += relays * self._config.relay_overhead_ms
            latency = max(latency, ms)
        # Endpoint CPU: one send/receive pair per tree edge (the payload
        # crosses each edge exactly once thanks to in-network replication).
        cpu = len(tree.parent) * self._config.transport.endpoint_cpu_ms(size)
        return latency, cpu

    # ------------------------------------------------------------------
    # Upload (training readiness gates each source)
    # ------------------------------------------------------------------
    def _upload(self, schedule: TaskSchedule) -> Tuple[float, float, Tuple[str, ...]]:
        """(completion incl. training, endpoint cpu, aggregation nodes)."""
        task = schedule.task
        size = task.size_mb
        agg = self._config.aggregation

        plan = schedule.upload_plan
        if plan is None:
            # Fixed: k end-to-end uploads, then k-1 serialised merges at G.
            completion = 0.0
            cpu = 0.0
            for local in task.local_nodes:
                path = schedule.upload_path_of(local)
                stage = (size, schedule.upload_flow_rates[local])
                prop = path_latency_ms(self._network, path)
                ms = self._pipelined_path_ms(prop, [stage] * (len(path) - 1))
                completion = max(completion, self._train_ms(task, local) + ms)
                cpu += self._config.transport.endpoint_cpu_ms(size)
            merges = max(0, task.n_locals - 1)
            completion += agg.merge_ms(size, merges)
            agg_nodes = (task.global_node,) if merges else ()
            return completion, cpu, agg_nodes

        terminals = set(task.local_nodes)
        # Per tree node, computed once: the latency of its parent edge,
        # and its (merge time, relay flag).  Each path still sums from
        # the local upward, as the per-path formulas do.
        edge_ms: Dict[str, float] = {}
        node_terms: Dict[str, Tuple[float, bool]] = {}
        completion = 0.0
        for local in task.local_nodes:
            path = schedule.upload_path_of(local)  # local -> root
            stages = []
            for src, dst in zip(path, path[1:]):
                rate = self._edge_rate(schedule.upload_edge_rates, src, dst)
                stages.append((size * plan.edge_payloads[src], rate))
                if src not in edge_ms:
                    edge_ms[src] = self._network.edge_latency_ms(src, dst)
                if dst not in node_terms:
                    merges = plan.merges[dst]
                    node_terms[dst] = (
                        agg.merge_ms(size, merges),
                        dst in terminals or merges > 0,
                    )
            prop = sum(edge_ms[node] for node in path[:-1])
            ms = self._pipelined_path_ms(prop, stages)
            # Merge compute and relay turnover along the way up.
            merge_ms = sum(node_terms[node][0] for node in path[1:])
            relays = sum(node_terms[node][1] for node in path[1:-1])
            ms += merge_ms + relays * self._config.relay_overhead_ms
            completion = max(completion, self._train_ms(task, local) + ms)
        # Endpoint CPU: one send/receive pair per payload crossing each
        # tree edge (aggregated payloads cross once).
        cpu = sum(
            self._config.transport.endpoint_cpu_ms(
                size * plan.edge_payloads[child]
            )
            for child, _parent in plan.tree.edges
        )
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
        broadcast_ms, broadcast_cpu = self._broadcast(schedule)
        upload_completion, upload_cpu, agg_nodes = self._upload(schedule)
        training_ms = max(
            self._train_ms(task, local) for local in task.local_nodes
        )
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

"""Event-driven execution of schedules on the simulation engine.

:class:`~repro.core.evaluation.ScheduleEvaluator` computes round latency
*analytically* as a max over per-local critical paths, assuming every
relay streams chunk-wise.  :class:`RoundExecutor` executes the same round
as a **dependency graph of events** on the
:class:`~repro.sim.engine.Simulator` with the same streaming semantics
made explicit: every payload is a *stream* described by the times its
first and last chunk pass a point.

* crossing a segment (bottleneck rate ``B``, propagation ``d``, payload
  ``P``): ``first' = first + d``; ``last' = max(last + d, first' + P/B)``
  — the stream is delayed by propagation and paced by the slower of its
  producer and the segment;
* a merge node needs chunk ``k`` of *every* input to emit chunk ``k``:
  ``first = max(inputs' first)``, ``last = max(inputs' last) + merge
  tail``; it fires only after all children (and its own training, if it
  hosts a local model) have reported;
* each local starts training when *its own* broadcast lands — early
  receivers start early, which the analytic model (training gated on the
  slowest broadcast) cannot express.

Consequently the executed round is a tighter estimate: tests assert
``executed <= analytic`` and that the two agree closely on balanced
topologies — a strong cross-check that both implementations encode the
same transfer semantics.

The executor also powers multi-round simulation with observation
feedback (:meth:`RoundExecutor.run_rounds`), which is what the
:class:`~repro.core.prediction.IterationPredictor` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import SchedulingError
from ..network.graph import Network
from ..network.paths import TreeResult, path_latency_ms
from .base import Edge, TaskSchedule
from .evaluation import EvaluationConfig, SpeedFn

#: A payload stream: (first-chunk time, last-chunk time), ms from origin.
Stream = Tuple[float, float]


@dataclass(frozen=True)
class ExecutedRound:
    """Measured timings of one event-driven round.

    Attributes:
        broadcast_done_ms: when the last local received the global
            weights (relative to round start).
        upload_done_ms: when the aggregate was complete at the root.
        total_ms: upload completion plus control overhead (the broadcast
            is on the same timeline, so it is already inside).
        per_local_receive_ms: when each local's broadcast landed.
    """

    broadcast_done_ms: float
    upload_done_ms: float
    total_ms: float
    per_local_receive_ms: Dict[str, float]


def _relay_points(
    tree: TreeResult, terminals: Set[str], extra: Set[str]
) -> Set[str]:
    relays = {tree.root} | terminals | extra
    children = tree.children()
    relays.update(node for node, kids in children.items() if len(kids) >= 2)
    return relays


def _logical_segments(
    tree: TreeResult, relays: Set[str]
) -> Dict[str, List[Tuple[str, Tuple[str, ...]]]]:
    """relay -> [(child relay, chain child..relay inclusive, root-wards)]."""
    segments: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
    for node in sorted(relays - {tree.root}):
        chain = [node]
        current = node
        while True:
            parent = tree.parent[current]
            chain.append(parent)
            if parent in relays:
                break
            current = parent
        segments.setdefault(chain[-1], []).append((node, tuple(chain)))
    return segments


class RoundExecutor:
    """Executes one task's training rounds as simulator events.

    Args:
        network: topology (latencies).
        schedule: the routes/trees + reserved rates to execute; a tree
            schedule's upload plan says where merges run.
        config: same evaluation-model parameters the analytic path uses.
        speed_fn: per-node training speed override.
    """

    def __init__(
        self,
        network: Network,
        schedule: TaskSchedule,
        config: Optional[EvaluationConfig] = None,
        speed_fn: Optional[SpeedFn] = None,
    ) -> None:
        self._network = network
        self._schedule = schedule
        self._config = config or EvaluationConfig()
        self._speed_fn = speed_fn
        self._task = schedule.task

    # ------------------------------------------------------------------
    # Stream arithmetic
    # ------------------------------------------------------------------
    def _train_ms(self, node: str) -> float:
        speed = (
            self._speed_fn(node)
            if self._speed_fn is not None
            else self._config.training_gflops
        )
        if speed <= 0:
            raise SchedulingError(f"node {node!r}: training speed must be > 0")
        return 1000.0 * self._task.model.train_gflop_per_round / speed

    def _cross_segment(
        self,
        stream: Stream,
        chain: Tuple[str, ...],
        size_mb: float,
        rates: List[float],
    ) -> Stream:
        """Push a stream across a relay-to-relay chain (pipelined)."""
        prop = path_latency_ms(self._network, chain)
        rtt = 2.0 * prop
        pace = max(
            self._config.transport.transfer_ms(size_mb, rate, rtt)
            for rate in rates
        )
        first, last = stream
        new_first = first + prop
        new_last = max(last + prop, new_first + pace)
        return (new_first, new_last)

    @staticmethod
    def _edge_rates(
        chain: Tuple[str, ...], edge_rates: Dict[Edge, float], *, reverse: bool
    ) -> List[float]:
        pairs = list(zip(chain, chain[1:]))
        rates = []
        for a, b in pairs:
            key: Edge = (b, a) if reverse else (a, b)
            if key not in edge_rates:
                raise SchedulingError(f"no reserved rate on tree edge {key}")
            rates.append(edge_rates[key])
        return rates

    # ------------------------------------------------------------------
    # One round, event-driven
    # ------------------------------------------------------------------
    def execute_round(self, sim, start_ms: Optional[float] = None) -> ExecutedRound:
        """Run one full round on ``sim`` (drains its event queue).

        Returns:
            Measured timings relative to the round's start.
        """
        origin = sim.now if start_ms is None else start_ms
        task = self._task
        size = task.size_mb
        received: Dict[str, float] = {}
        upload_done: List[float] = []
        start_training: Callable[[str], None]

        # ---------------- upload machinery (defined first so broadcast
        # completions can trigger training) ----------------
        plan = self._schedule.upload_plan
        if plan is not None:
            tree = plan.tree
            terminals = set(task.local_nodes)
            relays = _relay_points(tree, terminals, set(plan.aggregation_nodes))
            segments = _logical_segments(tree, relays)
            parent_of: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
            for parent, kids in segments.items():
                for child, chain in kids:
                    parent_of[child] = (parent, chain)

            pending: Dict[str, int] = {}
            inputs: Dict[str, List[Stream]] = {}
            for relay in relays:
                pending[relay] = len(segments.get(relay, []))
                if relay in terminals:
                    pending[relay] += 1
                inputs[relay] = []

            def relay_done(relay: str) -> None:
                """All inputs collected: merge, stream to the parent."""
                streams = inputs[relay]
                first = max(s[0] for s in streams)
                last = max(s[1] for s in streams)
                merges = plan.merges[relay]
                if merges:
                    last += self._config.aggregation.merge_ms(size, merges)
                if relay == tree.root:
                    sim.schedule(
                        origin + last,
                        lambda: upload_done.append(sim.now - origin),
                        name="upload:done",
                    )
                    return
                if relay in terminals or merges > 0:
                    overhead = self._config.relay_overhead_ms
                    first, last = first + overhead, last + overhead
                parent, chain = parent_of[relay]
                payloads = plan.edge_payloads[relay]
                rates = self._edge_rates(
                    chain, self._schedule.upload_edge_rates, reverse=False
                )
                out = self._cross_segment(
                    (first, last), chain, size * payloads, rates
                )

                def arrive() -> None:
                    inputs[parent].append(out)
                    pending[parent] -= 1
                    if pending[parent] == 0:
                        relay_done(parent)

                sim.schedule(
                    origin + out[1], arrive, name=f"upload:{relay}->{parent}"
                )

            def start_training(local: str) -> None:  # noqa: F811
                def trained() -> None:
                    moment = sim.now - origin
                    inputs[local].append((moment, moment))
                    pending[local] -= 1
                    if pending[local] == 0:
                        relay_done(local)

                sim.schedule_in(
                    self._train_ms(local), trained, name=f"train:{local}"
                )

        else:
            # Fixed: uploads converge on the root, k-1 serialised merges.
            waiting = [task.n_locals]
            arrivals: List[float] = []

            def start_training(local: str) -> None:  # noqa: F811
                def trained() -> None:
                    path = self._schedule.upload_path_of(local)
                    rate = self._schedule.upload_flow_rates[local]
                    moment = sim.now - origin
                    out = self._cross_segment(
                        (moment, moment), path, size, [rate] * (len(path) - 1)
                    )

                    def arrive() -> None:
                        arrivals.append(sim.now - origin)
                        waiting[0] -= 1
                        if waiting[0] == 0:
                            merges = max(0, task.n_locals - 1)
                            tail = self._config.aggregation.merge_ms(size, merges)
                            sim.schedule_in(
                                tail,
                                lambda: upload_done.append(sim.now - origin),
                                name="upload:done",
                            )

                    sim.schedule(origin + out[1], arrive, name=f"upload:{local}")

                sim.schedule_in(
                    self._train_ms(local), trained, name=f"train:{local}"
                )

        # ---------------- broadcast ----------------
        def land(local: str) -> None:
            received[local] = sim.now - origin
            start_training(local)

        if self._schedule.broadcast_tree is None:
            for local in task.local_nodes:
                path = self._schedule.broadcast_path_of(local)
                rate = self._schedule.broadcast_flow_rates[local]
                out = self._cross_segment(
                    (0.0, 0.0), path, size, [rate] * (len(path) - 1)
                )
                sim.schedule(
                    origin + out[1], lambda l=local: land(l), name=f"bcast:{local}"
                )
        else:
            tree = self._schedule.broadcast_tree
            terminals = set(task.local_nodes)
            relays = _relay_points(tree, terminals, set())
            segments = _logical_segments(tree, relays)

            def push_down(relay: str, stream: Stream) -> None:
                if relay in terminals:
                    sim.schedule(
                        origin + stream[1],
                        lambda l=relay: land(l),
                        name=f"bcast:{relay}",
                    )
                    # Relaying terminals add handling overhead downstream.
                    stream = (
                        stream[0] + self._config.relay_overhead_ms,
                        stream[1] + self._config.relay_overhead_ms,
                    )
                for child, chain in segments.get(relay, []):
                    down_chain = tuple(reversed(chain))  # relay -> child
                    rates = self._edge_rates(
                        down_chain,
                        self._schedule.broadcast_edge_rates,
                        reverse=False,
                    )
                    push_down(
                        child,
                        self._cross_segment(stream, down_chain, size, rates),
                    )

            push_down(tree.root, (0.0, 0.0))

        sim.run()
        if set(received) != set(task.local_nodes):
            missing = sorted(set(task.local_nodes) - set(received))
            raise SchedulingError(f"broadcast never reached {missing}")
        if not upload_done:
            raise SchedulingError("upload never completed at the root")
        return ExecutedRound(
            broadcast_done_ms=max(received.values()),
            upload_done_ms=upload_done[0],
            total_ms=upload_done[0] + self._config.control_overhead_ms,
            per_local_receive_ms=dict(received),
        )

    def run_rounds(
        self,
        sim,
        rounds: Optional[int] = None,
        observer: Optional[Callable[[str, float], None]] = None,
    ) -> List[ExecutedRound]:
        """Execute several synchronous rounds back to back.

        Args:
            sim: the simulator (reused across rounds; clock advances).
            rounds: how many rounds (defaults to the task's).
            observer: callback ``(task_id, round_total_ms)`` per round —
                plug an :class:`~repro.core.prediction.IterationPredictor`
                ``observe`` here.
        """
        count = rounds if rounds is not None else self._task.rounds
        if count < 1:
            raise SchedulingError(f"rounds must be >= 1, got {count}")
        results: List[ExecutedRound] = []
        for _ in range(count):
            result = self.execute_round(sim)
            results.append(result)
            if observer is not None:
                observer(self._task.task_id, result.total_ms)
        return results

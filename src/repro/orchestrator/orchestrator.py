"""The orchestrator façade: admission → placement → scheduling → rules.

This is the paper's logically-centralised controller.  For every admitted
task it deploys model containers through the computing manager, asks the
embedded scheduling policy for routes/trees (reserving network capacity),
programs the SDN controller, and records everything in the database.  It
also runs the re-scheduling loop of challenge #1 on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import obs
from ..compute.container import Container, ResourceDemand
from ..compute.manager import ComputingManager
from ..compute.server import Server
from ..core.base import Scheduler
from ..core.evaluation import EvaluationConfig, ScheduleEvaluator
from ..core.metrics import TaskReport
from ..core.rescheduling import ReschedulingPolicy
from ..errors import OrchestrationError, PlacementError, SchedulingError
from ..network import routing
from ..network.graph import Network
from ..tasks.aitask import AITask
from .database import Database, TaskRecord, TaskStatus
from .sdn import SdnController


def build_servers_for(
    network: Network,
    manager: ComputingManager,
    *,
    cpu_cores: float = 64.0,
    gpu_gflops: float = 100_000.0,
    memory_gb: float = 256.0,
) -> List[Server]:
    """Register one server per model-hosting node of the network."""
    servers = []
    for node_name in network.servers():
        server = Server(
            f"srv@{node_name}",
            node_name,
            cpu_cores=cpu_cores,
            gpu_gflops=gpu_gflops,
            memory_gb=memory_gb,
        )
        manager.register(server)
        servers.append(server)
    return servers


class Orchestrator:
    """Coordinates scheduling, placement, and flow programming.

    Args:
        network: the live data plane.
        scheduler: the embedded scheduling policy (fixed or flexible).
        compute: computing manager with registered servers; when None a
            default server is created at every model-hosting node.
        database / sdn: control-plane collaborators, created with
            defaults when omitted.
        rescheduling: policy for the re-scheduling loop (None disables).
        evaluation: evaluation model used by :meth:`evaluate`.
        container_gflops: accelerator rate reserved per model container.
    """

    def __init__(
        self,
        network: Network,
        scheduler: Scheduler,
        *,
        compute: Optional[ComputingManager] = None,
        database: Optional[Database] = None,
        sdn: Optional[SdnController] = None,
        rescheduling: Optional[ReschedulingPolicy] = None,
        evaluation: Optional[EvaluationConfig] = None,
        container_gflops: float = 50_000.0,
    ) -> None:
        if container_gflops <= 0:
            raise OrchestrationError(
                f"container_gflops must be > 0, got {container_gflops}"
            )
        self.network = network
        self.scheduler = scheduler
        self.database = database or Database()
        self.sdn = sdn or SdnController()
        self.rescheduling = rescheduling
        self.evaluation = evaluation or EvaluationConfig()
        self._container_gflops = container_gflops
        if compute is None:
            compute = ComputingManager()
            build_servers_for(network, compute)
        self.compute = compute
        self._clock_ms = 0.0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _container_id(self, task_id: str, node: str) -> str:
        return f"{task_id}:{node}"

    def _deploy_containers(self, task: AITask) -> List[str]:
        """Place one container per model node; rolls back on failure."""
        demand = ResourceDemand(
            cpu_cores=4.0,
            gpu_gflops=self._container_gflops,
            memory_gb=max(4.0, task.size_mb / 2000.0),
        )
        placed: List[str] = []
        try:
            for index, node in enumerate([task.global_node, *task.local_nodes]):
                role = "global" if index == 0 else f"local-{index - 1}"
                container = Container(
                    container_id=self._container_id(task.task_id, node),
                    demand=demand,
                    role=role,
                )
                self.compute.deploy(container, node=node)
                placed.append(container.container_id)
        except PlacementError:
            for container_id in placed:
                self.compute.destroy(container_id)
            raise
        return placed

    def _destroy_containers(self, task: AITask) -> None:
        for node in [task.global_node, *task.local_nodes]:
            try:
                self.compute.destroy(self._container_id(task.task_id, node))
            except PlacementError:
                pass  # never deployed (admission failed mid-way)

    def _release(self, record: TaskRecord) -> None:
        """Free a RUNNING task's network capacity, flow rules and report."""
        assert record.schedule is not None
        self.scheduler.release(record.schedule, self.network)
        self.sdn.remove(record.task.task_id)
        record.evaluated = None

    def _block(self, record: TaskRecord) -> None:
        """Mark a task BLOCKED; BLOCKED is terminal, so free its compute."""
        self._destroy_containers(record.task)
        record.schedule = None
        record.status = TaskStatus.BLOCKED

    def _reschedule(
        self,
        record: TaskRecord,
        moved: Optional[str] = None,
        blocked: Optional[str] = None,
    ) -> bool:
        """Release → re-schedule → install, or block the task.

        ``moved`` and ``blocked`` are the caller's event-log wording for
        the two outcomes (the scheduling error is appended to
        ``blocked``); an outcome without wording is not logged.

        Returns:
            True if the task keeps RUNNING on a fresh schedule.
        """
        task_id = record.task.task_id
        self._release(record)
        try:
            record.schedule = self.scheduler.schedule(record.task, self.network)
        except SchedulingError as exc:
            self._block(record)
            if blocked is not None:
                self.database.log(self._clock_ms, f"{task_id}: {blocked}: {exc}")
            return False
        self.sdn.install(record.schedule)
        record.reschedules += 1
        if moved is not None:
            self.database.log(self._clock_ms, f"{task_id}: {moved}")
        return True

    def _running_owners(self, u: str, v: str) -> List[str]:
        """RUNNING tasks with reservations on link u-v, in sorted order.

        One O(1) status lookup per owner, so the cost scales with the
        owners on the span, not with how many tasks were ever admitted.
        """
        return [
            owner
            for owner in self.network.owners_on_link(u, v)
            if self.database.is_running(owner)
        ]

    def _speed_fn(self, task: AITask):
        def speed(node: str) -> float:
            container_id = self._container_id(task.task_id, node)
            try:
                return self.compute.container_gflops(container_id)
            except PlacementError:
                return self._container_gflops

        return speed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def admit(self, task: AITask) -> TaskRecord:
        """Admit, place, schedule, and program one task.

        On scheduling or placement failure the task is recorded BLOCKED
        with every side effect rolled back.
        """
        record = self.database.insert_task(task)
        self._clock_ms = max(self._clock_ms, task.arrival_ms)
        try:
            self._deploy_containers(task)
        except PlacementError as exc:
            record.status = TaskStatus.BLOCKED
            self.database.log(self._clock_ms, f"{task.task_id}: placement failed: {exc}")
            obs.inc("orchestrator.blocked", scheduler=self.scheduler.name)
            return record
        try:
            schedule = self.scheduler.schedule(task, self.network)
        except SchedulingError as exc:
            self._destroy_containers(task)
            record.status = TaskStatus.BLOCKED
            self.database.log(self._clock_ms, f"{task.task_id}: scheduling failed: {exc}")
            obs.inc("orchestrator.blocked", scheduler=self.scheduler.name)
            return record
        config_ms = self.sdn.install(schedule)
        record.schedule = schedule
        record.status = TaskStatus.RUNNING
        record.remaining_rounds = task.rounds
        self.database.log(
            self._clock_ms,
            f"{task.task_id}: running via {self.scheduler.name} "
            f"({config_ms:.3f} ms configuration)",
        )
        if obs.active() is not None:
            # Reservation pressure peaks right after a successful admit;
            # sampling here (enabled-only, O(links)) captures the
            # hotspot profile without touching the admission path.
            obs.inc("orchestrator.admitted", scheduler=self.scheduler.name)
            obs.observe_network(self.network, scheduler=self.scheduler.name)
        return record

    def complete(self, task_id: str) -> TaskRecord:
        """Finish a task: free capacity, rules, and containers."""
        record = self.database.record(task_id)
        if record.status is not TaskStatus.RUNNING:
            raise OrchestrationError(
                f"task {task_id!r} is {record.status.value}, not running"
            )
        self._release(record)
        self._destroy_containers(record.task)
        record.status = TaskStatus.COMPLETED
        record.remaining_rounds = 0
        self.database.log(self._clock_ms, f"{task_id}: completed")
        return record

    def evaluate(self, task_id: str) -> TaskReport:
        """Evaluate a RUNNING task's schedule under the current config.

        A report is computed once per schedule: it is kept on the record
        and returned again while the task holds the same schedule and
        ``self.evaluation`` is the same config object.  Releasing the
        schedule (completion, re-schedule, block) drops it.

        Raises:
            OrchestrationError: unless the task is RUNNING (a completed
                task keeps its schedule record, but not its capacity).
        """
        record = self.database.record(task_id)
        if record.status is not TaskStatus.RUNNING:
            raise OrchestrationError(
                f"task {task_id!r} is {record.status.value}, not running"
            )
        schedule = record.schedule
        evaluated = record.evaluated
        if (
            evaluated is not None
            and evaluated[0] is schedule
            and evaluated[1] is self.evaluation
        ):
            return evaluated[2]
        evaluator = ScheduleEvaluator(
            self.network, self.evaluation, speed_fn=self._speed_fn(record.task)
        )
        report = evaluator.report(schedule)
        record.evaluated = (schedule, self.evaluation, report)
        return report

    # ------------------------------------------------------------------
    # Re-scheduling loop (challenge #1)
    # ------------------------------------------------------------------
    def reschedule_pass(self) -> Dict[str, bool]:
        """Offer every RUNNING task a re-schedule; apply approved ones.

        Returns:
            task id -> whether it was re-scheduled.

        Raises:
            OrchestrationError: when no rescheduling policy is configured.
        """
        if self.rescheduling is None:
            raise OrchestrationError("no rescheduling policy configured")
        outcomes: Dict[str, bool] = {}
        for record in self.database.running():
            assert record.schedule is not None
            decision = self.rescheduling.evaluate(
                record.task,
                record.schedule,
                self.network,
                self.scheduler,
                remaining_rounds=record.remaining_rounds,
                evaluation=self.evaluation,
            )
            outcomes[record.task.task_id] = decision.reschedule
            self.database.log(
                self._clock_ms,
                f"{record.task.task_id}: reschedule={decision.reschedule} "
                f"({decision.reason})",
            )
            if decision.reschedule:
                # The prediction was made on a scratch copy; if the live
                # network rejects, restore nothing and block the task.
                self._reschedule(record)
        return outcomes

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def advance_clock(self, time_ms: float) -> None:
        """Move the control-plane clock forward (event log timestamps)."""
        self._clock_ms = max(self._clock_ms, time_ms)

    def handle_link_failure(self, u: str, v: str) -> Dict[str, bool]:
        """Fail a link and repair every running task routed across it.

        Affected tasks have their reservations released and are re-run
        through the scheduler on the degraded topology.  Tasks that can
        be re-routed keep RUNNING (with fresh flow rules); tasks that
        cannot are marked BLOCKED.  The routing cache is left alone: the
        next lookup of each entry validates it against the new weights.

        Returns:
            affected task id -> True if repaired, False if blocked.
        """
        affected = self._running_owners(u, v)
        self.network.fail_link(u, v)
        self.database.log(self._clock_ms, f"link {u}-{v} failed; {len(affected)} tasks affected")
        return {
            task_id: self._reschedule(
                self.database.record(task_id),
                f"re-routed around {u}-{v}",
                "blocked after failure",
            )
            for task_id in affected
        }

    def handle_link_restore(self, u: str, v: str) -> None:
        """Bring a failed link back (re-optimisation is the policy's job).

        Cached routes are validated at their next lookup, not here.
        """
        self.network.restore_link(u, v)
        self.database.log(self._clock_ms, f"link {u}-{v} restored")

    def handle_node_failure(self, name: str) -> Dict[str, bool]:
        """Take a device down and repair every running task it carried.

        Tasks merely *routed* through the node are re-run through the
        scheduler on the degraded topology, exactly like a link failure.
        Tasks with a model endpoint *on* the node (its global or a local
        model host) cannot survive the outage: their containers die with
        the device, so they are torn down and marked BLOCKED.  Cached
        routes anchored at the node are pruned by containment; every
        other entry is validated at its next lookup.

        Returns:
            affected task id -> True if re-routed, False if blocked.
        """
        hosted = {
            record.task.task_id
            for record in self.database.running()
            if name == record.task.global_node
            or name in record.task.local_nodes
        }
        affected = set(hosted)
        for neighbor in self.network.neighbors(name):
            affected.update(self._running_owners(name, neighbor))
        self.network.fail_node(name)
        cache = routing.peek_cache(self.network)
        if cache is not None:
            cache.prune(dead_nodes=(name,))
        self.database.log(
            self._clock_ms,
            f"node {name} failed; {len(affected)} tasks affected",
        )
        outcomes: Dict[str, bool] = {}
        for task_id in sorted(affected):
            record = self.database.record(task_id)
            if task_id not in hosted:
                outcomes[task_id] = self._reschedule(
                    record,
                    f"re-routed around {name}",
                    "blocked after node failure",
                )
                continue
            self._release(record)
            self._block(record)
            outcomes[task_id] = False
            self.database.log(
                self._clock_ms,
                f"{task_id}: blocked, model host {name} is down",
            )
        return outcomes

    def handle_node_restore(self, name: str) -> None:
        """Bring a downed device back into service (cache validated at lookup)."""
        self.network.restore_node(name)
        self.database.log(self._clock_ms, f"node {name} restored")

    def handle_link_drain(self, u: str, v: str) -> Dict[str, bool]:
        """Proactively drain a span ahead of a forecast failure.

        The link is taken out of service *now* — same mechanism as a
        failure, so the scheduler immediately stops considering it — and
        every running task routed across it is moved onto the rest of
        the fabric while the span is still nominally healthy.  When the
        forecast fault then lands, nothing is left on the span to
        interrupt.  A no-op when the link is already down (an earlier
        fault beat the forecast).  Like a failure, it leaves the routing
        cache to validate at lookup.

        Returns:
            affected task id -> True if drained off, False if blocked.
        """
        link = self.network.link(u, v)
        if link.failed:
            self.database.log(
                self._clock_ms, f"link {u}-{v} drain skipped: already down"
            )
            return {}
        affected = self._running_owners(u, v)
        self.network.fail_link(u, v)
        self.database.log(
            self._clock_ms,
            f"link {u}-{v} draining ahead of forecast fault; "
            f"{len(affected)} tasks to move",
        )
        return {
            task_id: self._reschedule(
                self.database.record(task_id),
                f"drained off {u}-{v}",
                "blocked during drain",
            )
            for task_id in affected
        }

    def handle_link_capacity(
        self, u: str, v: str, capacity_gbps: float
    ) -> Dict[str, bool]:
        """Change a live link's capacity (partial degradation / recovery).

        Shrinking below current use evicts running tasks off the span —
        in sorted owner order, one at a time, until the remaining
        reservations fit — and re-runs each through the scheduler, which
        may legitimately re-place it on the degraded span at a rate that
        fits.  Background flows are never evicted; a span kept
        oversubscribed by unmovable flows is left carrying them (the
        reservation invariant is enforced at admission, not
        retroactively).  Growing capacity never moves anybody:
        re-optimisation is the rescheduling policy's job.  Cached routes
        are validated at their next lookup.

        Returns:
            evicted task id -> True if re-scheduled, False if blocked.
        """
        link = self.network.link(u, v)
        link.capacity_gbps = capacity_gbps
        self.database.log(
            self._clock_ms,
            f"link {u}-{v} capacity set to {capacity_gbps:g} Gbps",
        )
        outcomes: Dict[str, bool] = {}
        while (
            link.used_gbps(u, v) > capacity_gbps + 1e-9
            or link.used_gbps(v, u) > capacity_gbps + 1e-9
        ):
            movable = self._running_owners(u, v)
            if not movable:
                break
            task_id = movable[0]
            outcomes[task_id] = self._reschedule(
                self.database.record(task_id),
                f"moved off degraded {u}-{v}",
                f"blocked after degrade of {u}-{v}",
            )
        return outcomes

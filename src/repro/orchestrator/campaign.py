"""Campaign runner: whole task lifecycles on the simulation engine.

Everything else in the orchestrator package acts on one instant; the
campaign runner plays a *timeline*: tasks are admitted at their arrival
times, run their synchronous training rounds as cooperative processes
(each round's duration re-evaluated against the live network, so
re-scheduling and departures change subsequent rounds), an optional
periodic re-scheduling pass exercises the challenge-#1 policy, and
completed tasks release their resources — the closest software analogue
of letting the paper's testbed run for an afternoon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .. import obs
from ..core.base import Scheduler
from ..core.metrics import TaskReport
from ..core.prediction import IterationPredictor
from ..errors import OrchestrationError
from ..sim.engine import Simulator
from ..sim.process import Process
from ..tasks.aitask import AITask
from ..tasks.workload import TaskWorkload
from .database import TaskRecord, TaskStatus
from .orchestrator import Orchestrator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.injector import FaultInjector
    from ..scenarios.spec import ScenarioInstance, ScenarioSpec


@dataclass
class TaskOutcome:
    """Lifecycle record of one task in a campaign.

    Attributes:
        task_id: the task.
        admitted_ms: when admission succeeded (None if blocked at entry).
        completed_ms: when the final round finished (None if unfinished).
        rounds_run: rounds actually executed.
        round_durations_ms: duration of each executed round.
        reschedules: times the task's paths were recomputed mid-flight.
    """

    task_id: str
    admitted_ms: Optional[float] = None
    completed_ms: Optional[float] = None
    rounds_run: int = 0
    round_durations_ms: List[float] = field(default_factory=list)
    reschedules: int = 0

    @property
    def finished(self) -> bool:
        return self.completed_ms is not None


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of a campaign run.

    Attributes:
        outcomes: per-task lifecycle records (admission order).
        makespan_ms: completion time of the last finishing task.
        blocked: tasks that never got admitted.
        availability: per-run fault/availability metrics when a fault
            injector played a timeline during the run (None otherwise);
            see :meth:`repro.resilience.AvailabilityAccountant.metrics`.
        deadline_tasks: tasks that carried a completion deadline.
        deadline_misses: deadline tasks that finished past
            ``arrival_ms + deadline_ms`` — or never finished at all
            (blocked or unfinished deadline tasks count as misses).
    """

    outcomes: Dict[str, TaskOutcome]
    makespan_ms: float
    blocked: int
    availability: Optional[Dict[str, float]] = None
    deadline_tasks: int = 0
    deadline_misses: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.finished)

    @property
    def mean_round_ms(self) -> float:
        durations = [
            d for o in self.outcomes.values() for d in o.round_durations_ms
        ]
        if not durations:
            return 0.0
        return sum(durations) / len(durations)


class CampaignRunner:
    """Plays a workload through an orchestrator on simulated time.

    Args:
        orchestrator: admission/scheduling/completion machinery.
        workload: the task mix (arrival times honoured).
        reschedule_period_ms: run ``orchestrator.reschedule_pass()``
            every period (requires a configured rescheduling policy);
            ``None`` disables the loop.
        predictor: optional iteration predictor fed with every round.
        injector: optional :class:`~repro.resilience.FaultInjector`; its
            fail/repair timeline is scheduled alongside the arrivals and
            dispatched through the orchestrator's failure handlers, and
            its availability metrics land on the result.
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        workload: TaskWorkload,
        *,
        reschedule_period_ms: Optional[float] = None,
        predictor: Optional[IterationPredictor] = None,
        injector: "Optional[FaultInjector]" = None,
    ) -> None:
        if reschedule_period_ms is not None:
            if reschedule_period_ms <= 0:
                raise OrchestrationError(
                    f"reschedule_period_ms must be > 0, got {reschedule_period_ms}"
                )
            if orchestrator.rescheduling is None:
                raise OrchestrationError(
                    "periodic rescheduling needs a policy on the orchestrator"
                )
        self._orchestrator = orchestrator
        self._workload = workload
        self._period = reschedule_period_ms
        self._predictor = predictor
        self._injector = injector

    def run(self, until: Optional[float] = None) -> CampaignResult:
        """Execute the campaign; returns once all work (or ``until``) ends."""
        sim = Simulator()
        orchestrator = self._orchestrator
        outcomes: Dict[str, TaskOutcome] = {
            task.task_id: TaskOutcome(task_id=task.task_id)
            for task in self._workload
        }
        finish_times: List[float] = []

        def training_loop(task_id: str, rounds: int):
            outcome = outcomes[task_id]
            for _ in range(rounds):
                record = orchestrator.database.record(task_id)
                if record.status is not TaskStatus.RUNNING:
                    return
                duration = orchestrator.evaluate(task_id).round_latency.total_ms
                yield duration
                outcome.rounds_run += 1
                outcome.round_durations_ms.append(duration)
                outcome.reschedules = record.reschedules
                record.remaining_rounds -= 1
                if self._predictor is not None:
                    self._predictor.observe(task_id, duration)
            record = orchestrator.database.record(task_id)
            if record.status is TaskStatus.RUNNING:
                orchestrator.complete(task_id)
                outcome.completed_ms = sim.now
                finish_times.append(sim.now)

        def admit(task) -> None:
            record = orchestrator.admit(task)
            if record.status is not TaskStatus.RUNNING:
                return
            outcomes[task.task_id].admitted_ms = sim.now
            Process(
                sim,
                training_loop(task.task_id, record.task.rounds),
                name=f"train:{task.task_id}",
            )

        for task in self._workload:
            sim.schedule(
                task.arrival_ms, lambda t=task: admit(t), name=f"admit:{task.task_id}"
            )

        if self._injector is not None:
            self._injector.attach(sim, orchestrator)

        if self._period is not None:
            def reschedule_loop():
                while True:
                    yield self._period
                    if not orchestrator.database.running():
                        return
                    orchestrator.reschedule_pass()

            Process(sim, reschedule_loop(), name="reschedule-loop")

        registry = obs.active()
        if registry is None:
            sim.run(until=until)
        else:
            # Bind the simulator's clock so every span closed during the
            # campaign (scheduling, this whole run) also reports how
            # much *simulated* time elapsed inside it.
            previous_clock = registry.bind_sim_clock(lambda: sim.now)
            try:
                with registry.span(
                    "campaign", scheduler=orchestrator.scheduler.name
                ):
                    sim.run(until=until)
            finally:
                registry.bind_sim_clock(previous_clock)
        blocked = sum(
            1 for o in outcomes.values() if o.admitted_ms is None
        )
        availability: Optional[Dict[str, float]] = None
        if self._injector is not None:
            self._injector.finalize(sim.now)
            availability = self._injector.accountant.metrics()
        deadline_tasks = 0
        deadline_misses = 0
        for task in self._workload:
            if task.deadline_ms is None:
                continue
            deadline_tasks += 1
            outcome = outcomes[task.task_id]
            if (
                outcome.completed_ms is None
                or outcome.completed_ms > task.arrival_ms + task.deadline_ms
            ):
                deadline_misses += 1
        return CampaignResult(
            outcomes=outcomes,
            makespan_ms=max(finish_times) if finish_times else sim.now,
            blocked=blocked,
            availability=availability,
            deadline_tasks=deadline_tasks,
            deadline_misses=deadline_misses,
        )


def serve_sequential(
    orchestrator: Orchestrator, tasks: Iterable[AITask]
) -> Tuple[List[Tuple[TaskRecord, TaskReport]], int]:
    """Serve tasks one at a time: admit → evaluate → complete.

    The Fig. 3 protocol, without simulated time: each admitted task is
    evaluated and then released before the next arrives, so every task
    sees the same background conditions.  Returns the served
    ``(record, report)`` pairs in order and the number of blocked tasks.
    """
    served: List[Tuple[TaskRecord, TaskReport]] = []
    blocked = 0
    for task in tasks:
        record = orchestrator.admit(task)
        if record.status is not TaskStatus.RUNNING:
            blocked += 1
            continue
        served.append((record, orchestrator.evaluate(task.task_id)))
        orchestrator.complete(task.task_id)
    return served, blocked


def orchestrator_for(
    instance: "ScenarioInstance", scheduler: Optional[Scheduler] = None
) -> Orchestrator:
    """An orchestrator on the instance's fabric.

    The single wiring recipe shared by ``run_scenario`` and the sweep
    engine, so both entry points serve identical state for the same
    ``(scenario, params, seed)``.  The instance already carries its
    background flows: ``ScenarioSpec.instantiate`` injects them.
    """
    # Imported lazily: repro.scenarios imports orchestrator machinery.
    from ..core.flexible import FlexibleScheduler

    return Orchestrator(instance.network, scheduler or FlexibleScheduler())


def campaign_runner_for(
    instance: "ScenarioInstance",
    scheduler: Optional[Scheduler] = None,
    *,
    reschedule_period_ms: Optional[float] = None,
) -> CampaignRunner:
    """A campaign runner for the instance, fault injector included."""
    from ..resilience.injector import FaultInjector

    injector = (
        FaultInjector(instance.fault_timeline)
        if instance.fault_timeline is not None
        else None
    )
    return CampaignRunner(
        orchestrator_for(instance, scheduler),
        instance.workload,
        reschedule_period_ms=reschedule_period_ms,
        injector=injector,
    )


def run_scenario(
    spec: "Union[str, ScenarioSpec]",
    params: Optional[Mapping[str, Any]] = None,
    *,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
    reschedule_period_ms: Optional[float] = None,
    until: Optional[float] = None,
) -> CampaignResult:
    """Play one registered scenario as a full campaign timeline.

    This is the scenario-registry entry point into the campaign runner:
    the spec (by name or object) is instantiated deterministically for
    ``(params, seed)`` with its background flows, its task mix
    is admitted at the generated arrival times on simulated time, and —
    when the spec carries a fault profile — its fail/repair timeline is
    played through the orchestrator mid-campaign.

    Args:
        spec: a registered scenario name or a :class:`ScenarioSpec`.
        params: parameter overrides (validated against the spec).
        seed: master seed for topology randomness, failures, and tasks.
        scheduler: scheduling policy; flexible (MST) when omitted.
        reschedule_period_ms / until: forwarded to the campaign runner.
    """
    # Imported lazily: repro.scenarios imports orchestrator machinery.
    from ..scenarios.registry import get_scenario

    if isinstance(spec, str):
        spec = get_scenario(spec)
    instance = spec.instantiate(params, seed=seed)
    runner = campaign_runner_for(
        instance, scheduler, reschedule_period_ms=reschedule_period_ms
    )
    return runner.run(until=until)

"""The orchestrator's database: tasks, schedules, telemetry, event log."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.base import TaskSchedule
from ..core.evaluation import EvaluationConfig
from ..core.metrics import TaskReport
from ..errors import OrchestrationError
from ..network.state import NetworkState
from ..tasks.aitask import AITask


class TaskStatus(enum.Enum):
    """Lifecycle of an admitted AI task."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    BLOCKED = "blocked"


@dataclass
class TaskRecord:
    """Everything the database knows about one task.

    Attributes:
        task: the request (possibly client-selected subset).
        status: lifecycle state.
        schedule: live schedule while RUNNING.
        remaining_rounds: rounds left to run.
        reschedules: how many times the task was re-scheduled.
        evaluated: ``(schedule, config, report)`` of the last evaluation,
            kept while the task holds that schedule (the orchestrator
            drops it whenever it releases the schedule).
    """

    task: AITask
    status: TaskStatus = TaskStatus.PENDING
    schedule: Optional[TaskSchedule] = None
    remaining_rounds: int = 0
    reschedules: int = 0
    evaluated: Optional[
        Tuple[TaskSchedule, EvaluationConfig, TaskReport]
    ] = field(default=None, compare=False, repr=False)


class Database:
    """In-memory store with the interfaces the other components use."""

    def __init__(self, max_snapshots: int = 1000) -> None:
        if max_snapshots < 1:
            raise OrchestrationError(
                f"max_snapshots must be >= 1, got {max_snapshots}"
            )
        self._tasks: Dict[str, TaskRecord] = {}
        self._snapshots: List[NetworkState] = []
        self._events: List[Tuple[float, str]] = []
        self._max_snapshots = max_snapshots

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def insert_task(self, task: AITask) -> TaskRecord:
        """Store a newly admitted task.

        Raises:
            OrchestrationError: on duplicate task ids.
        """
        if task.task_id in self._tasks:
            raise OrchestrationError(f"duplicate task {task.task_id!r}")
        record = TaskRecord(task=task, remaining_rounds=task.rounds)
        self._tasks[task.task_id] = record
        return record

    def record(self, task_id: str) -> TaskRecord:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise OrchestrationError(f"unknown task {task_id!r}") from None

    def records(self, status: Optional[TaskStatus] = None) -> List[TaskRecord]:
        """Task records in admission order, optionally filtered."""
        return [
            record
            for record in self._tasks.values()
            if status is None or record.status is status
        ]

    def running(self) -> List[TaskRecord]:
        return self.records(TaskStatus.RUNNING)

    def is_running(self, task_id: str) -> bool:
        """Whether ``task_id`` is a RUNNING task, in O(1).

        Unknown ids — background-flow reservation owners among them —
        are not tasks, so they are never running.
        """
        record = self._tasks.get(task_id)
        return record is not None and record.status is TaskStatus.RUNNING

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def store_snapshot(self, snapshot: NetworkState) -> None:
        """Keep the latest ``max_snapshots`` network states."""
        self._snapshots.append(snapshot)
        if len(self._snapshots) > self._max_snapshots:
            self._snapshots.pop(0)

    @property
    def latest_snapshot(self) -> Optional[NetworkState]:
        return self._snapshots[-1] if self._snapshots else None

    @property
    def snapshot_count(self) -> int:
        return len(self._snapshots)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def log(self, time_ms: float, message: str) -> None:
        self._events.append((time_ms, message))

    @property
    def events(self) -> List[Tuple[float, str]]:
        return list(self._events)

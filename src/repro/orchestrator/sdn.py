"""The SDN controller: schedules in, flow rules out.

The physical testbed programs ROADMs and routers; here the controller
keeps each task's installed :class:`~repro.core.base.TaskSchedule` as
its rule table.  A schedule's edge-rate maps name every directed edge
it reserves, each once per procedure, so a rule is one map key: the
controller counts rules at install time (to charge the reconfiguration
cost the re-scheduling trade-off pays) and builds :class:`FlowRule`
entries only when someone reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..core.base import TaskSchedule
from ..errors import OrchestrationError


@dataclass(frozen=True)
class FlowRule:
    """One forwarding entry on one device.

    Attributes:
        device: the node holding the rule.
        task_id: owner task (the match key, with ``procedure``).
        procedure: "broadcast" or "upload".
        next_hop: where matching traffic is forwarded.
    """

    device: str
    task_id: str
    procedure: str
    next_hop: str


def _rule_count(schedule: TaskSchedule) -> int:
    """One rule per directed edge the schedule reserves, per procedure."""
    return len(schedule.broadcast_edge_rates) + len(schedule.upload_edge_rates)


def _rules(schedule: TaskSchedule) -> Iterator[FlowRule]:
    """The schedule's rules: broadcast first, then upload, in map order."""
    task_id = schedule.task.task_id
    for procedure, rates in (
        ("broadcast", schedule.broadcast_edge_rates),
        ("upload", schedule.upload_edge_rates),
    ):
        for src, dst in rates:
            yield FlowRule(
                device=src, task_id=task_id, procedure=procedure, next_hop=dst
            )


class SdnController:
    """Installs and removes the flow rules of schedules.

    Args:
        rule_install_ms: modelled time to program one rule; exposed so the
            orchestrator can charge control latency per (re)configuration.
    """

    def __init__(self, rule_install_ms: float = 0.1) -> None:
        if rule_install_ms < 0:
            raise OrchestrationError(
                f"rule_install_ms must be >= 0, got {rule_install_ms}"
            )
        self.rule_install_ms = rule_install_ms
        # task id -> the installed schedule, in install order.
        self._schedules: Dict[str, TaskSchedule] = {}
        self._reconfigurations = 0

    def install(self, schedule: TaskSchedule) -> float:
        """Program the schedule's rules.

        Returns:
            The modelled configuration latency in ms.

        Raises:
            OrchestrationError: if the task already has rules installed.
        """
        task_id = schedule.task.task_id
        if task_id in self._schedules:
            raise OrchestrationError(
                f"task {task_id!r} already has flow rules; remove them first"
            )
        self._schedules[task_id] = schedule
        self._reconfigurations += 1
        return _rule_count(schedule) * self.rule_install_ms

    def remove(self, task_id: str) -> int:
        """Delete all rules of a task; returns how many were removed."""
        schedule = self._schedules.pop(task_id, None)
        return 0 if schedule is None else _rule_count(schedule)

    def rules_of(self, task_id: str) -> List[FlowRule]:
        """Live rules of one task (empty when none)."""
        schedule = self._schedules.get(task_id)
        return [] if schedule is None else list(_rules(schedule))

    def rules_on(self, device: str) -> List[FlowRule]:
        """Live rules installed on one device, across tasks."""
        return [
            rule
            for schedule in self._schedules.values()
            for rule in _rules(schedule)
            if rule.device == device
        ]

    @property
    def reconfigurations(self) -> int:
        """Total install operations performed."""
        return self._reconfigurations

    @property
    def total_rules(self) -> int:
        """Live rules currently installed."""
        return sum(_rule_count(schedule) for schedule in self._schedules.values())

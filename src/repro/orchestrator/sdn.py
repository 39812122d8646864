"""The SDN controller: schedules in, flow rules out.

The physical testbed programs ROADMs and routers; here the controller
materialises a :class:`~repro.core.base.TaskSchedule` into per-hop
:class:`FlowRule` entries, tracks them per task for clean removal, and
accounts the reconfiguration cost the re-scheduling trade-off pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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


class SdnController:
    """Installs and removes flow rules derived from schedules.

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
        self._rules: Dict[str, List[FlowRule]] = {}
        self._reconfigurations = 0
        self._rules_installed_total = 0

    @staticmethod
    def _rules_for(schedule: TaskSchedule) -> List[FlowRule]:
        """One rule per directed edge the schedule reserves, per procedure.

        Both schedule shapes list every hop they use in their edge-rate
        maps (a path schedule sums its flows' rates per hop), so the maps
        name every rule, each once.
        """
        task_id = schedule.task.task_id
        return [
            FlowRule(device=src, task_id=task_id, procedure=procedure, next_hop=dst)
            for procedure, rates in (
                ("broadcast", schedule.broadcast_edge_rates),
                ("upload", schedule.upload_edge_rates),
            )
            for src, dst in rates
        ]

    def install(self, schedule: TaskSchedule) -> float:
        """Program the schedule's rules.

        Returns:
            The modelled configuration latency in ms.

        Raises:
            OrchestrationError: if the task already has rules installed.
        """
        task_id = schedule.task.task_id
        if task_id in self._rules:
            raise OrchestrationError(
                f"task {task_id!r} already has flow rules; remove them first"
            )
        rules = self._rules_for(schedule)
        self._rules[task_id] = rules
        self._reconfigurations += 1
        self._rules_installed_total += len(rules)
        return len(rules) * self.rule_install_ms

    def remove(self, task_id: str) -> int:
        """Delete all rules of a task; returns how many were removed."""
        return len(self._rules.pop(task_id, []))

    def rules_of(self, task_id: str) -> List[FlowRule]:
        """Live rules of one task (empty when none)."""
        return list(self._rules.get(task_id, []))

    def rules_on(self, device: str) -> List[FlowRule]:
        """Live rules installed on one device, across tasks."""
        return [
            rule
            for rules in self._rules.values()
            for rule in rules
            if rule.device == device
        ]

    @property
    def reconfigurations(self) -> int:
        """Total install operations performed."""
        return self._reconfigurations

    @property
    def total_rules(self) -> int:
        """Live rules currently installed."""
        return sum(len(rules) for rules in self._rules.values())

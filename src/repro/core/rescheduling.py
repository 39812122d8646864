"""Re-scheduling policy: interruption versus bandwidth/latency saving.

Open challenge #1: "We also need to balance a trade-off between
re-scheduling (temporary interruption) and bandwidth/latency saving."

:class:`ReschedulingPolicy` makes that trade-off explicit.  When the
network changes (tasks arrive/depart, background traffic shifts), the
orchestrator asks the policy whether a deployed task should be recomputed.
The policy *tries* the new schedule on a scratch copy of the network,
compares bandwidth and round latency against the incumbent, converts the
predicted saving over the task's remaining rounds into milliseconds of
benefit, and approves only when the benefit outweighs the configured
interruption cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SchedulingError
from ..network.graph import Network
from ..tasks.aitask import AITask
from .base import Scheduler, TaskSchedule
from .evaluation import EvaluationConfig, ScheduleEvaluator


@dataclass(frozen=True)
class ReschedulingDecision:
    """Outcome of a re-scheduling evaluation.

    Attributes:
        reschedule: whether to adopt the candidate schedule.
        bandwidth_saving_gbps: incumbent minus candidate consumed rate.
        latency_saving_ms_per_round: incumbent minus candidate round time.
        benefit_ms: latency saved over the remaining rounds.
        interruption_ms: modelled service pause if rescheduled.
        reason: human-readable explanation.
    """

    reschedule: bool
    bandwidth_saving_gbps: float
    latency_saving_ms_per_round: float
    benefit_ms: float
    interruption_ms: float
    reason: str


class ReschedulingPolicy:
    """Decides whether a deployed task is worth re-scheduling.

    Args:
        interruption_ms: service pause incurred by reprogramming paths
            (SDN flow updates, lightpath retuning).
        min_bandwidth_saving_gbps: ignore candidates saving less rate than
            this (hysteresis against churn).
        remaining_rounds_weight: fraction of the remaining rounds' latency
            saving credited as benefit (1.0 trusts the prediction fully).
    """

    def __init__(
        self,
        *,
        interruption_ms: float = 5.0,
        min_bandwidth_saving_gbps: float = 0.0,
        remaining_rounds_weight: float = 1.0,
    ) -> None:
        if interruption_ms < 0:
            raise SchedulingError(
                f"interruption_ms must be >= 0, got {interruption_ms}"
            )
        if min_bandwidth_saving_gbps < 0:
            raise SchedulingError(
                f"min_bandwidth_saving_gbps must be >= 0, got "
                f"{min_bandwidth_saving_gbps}"
            )
        if not 0.0 <= remaining_rounds_weight <= 1.0:
            raise SchedulingError(
                f"remaining_rounds_weight must be in [0, 1], got "
                f"{remaining_rounds_weight}"
            )
        self.interruption_ms = interruption_ms
        self.min_bandwidth_saving_gbps = min_bandwidth_saving_gbps
        self.remaining_rounds_weight = remaining_rounds_weight

    def evaluate(
        self,
        task: AITask,
        incumbent: TaskSchedule,
        network: Network,
        scheduler: Scheduler,
        *,
        remaining_rounds: Optional[int] = None,
        evaluation: Optional[EvaluationConfig] = None,
    ) -> ReschedulingDecision:
        """Try re-scheduling ``task`` on a scratch network and decide.

        The scratch network mirrors the live topology and every
        reservation *except* the task's own (those would be released
        before re-scheduling).  The live network is never mutated.
        """
        rounds_left = remaining_rounds if remaining_rounds is not None else task.rounds
        if rounds_left <= 0:
            return ReschedulingDecision(
                reschedule=False,
                bandwidth_saving_gbps=0.0,
                latency_saving_ms_per_round=0.0,
                benefit_ms=0.0,
                interruption_ms=self.interruption_ms,
                reason="task has no remaining rounds",
            )

        scratch = network.copy_topology()
        for link in network.links():
            if link.failed:
                # The copy carries the failure; stranded reservations on a
                # dead link do not constrain what-if scheduling (and the
                # scratch link would reject them anyway).
                continue
            owners = sorted(link.owners() - {task.task_id})
            for src, dst in ((link.u, link.v), (link.v, link.u)):
                for owner in owners:
                    gbps = link.owner_gbps(src, dst, owner)
                    if gbps:
                        scratch.reserve_edge(src, dst, gbps, owner)

        try:
            candidate = scheduler.schedule(task, scratch)
        except SchedulingError as exc:
            return ReschedulingDecision(
                reschedule=False,
                bandwidth_saving_gbps=0.0,
                latency_saving_ms_per_round=0.0,
                benefit_ms=0.0,
                interruption_ms=self.interruption_ms,
                reason=f"candidate infeasible: {exc}",
            )

        evaluator = ScheduleEvaluator(scratch, evaluation)
        live_evaluator = ScheduleEvaluator(network, evaluation)
        old_round = live_evaluator.round_latency(incumbent).total_ms
        new_round = evaluator.round_latency(candidate).total_ms
        bandwidth_saving = (
            incumbent.consumed_bandwidth_gbps - candidate.consumed_bandwidth_gbps
        )
        latency_saving = old_round - new_round
        benefit = self.remaining_rounds_weight * latency_saving * rounds_left

        if bandwidth_saving < self.min_bandwidth_saving_gbps:
            return ReschedulingDecision(
                reschedule=False,
                bandwidth_saving_gbps=bandwidth_saving,
                latency_saving_ms_per_round=latency_saving,
                benefit_ms=benefit,
                interruption_ms=self.interruption_ms,
                reason=(
                    f"bandwidth saving {bandwidth_saving:.3f} Gbps below the "
                    f"{self.min_bandwidth_saving_gbps} Gbps threshold"
                ),
            )
        if benefit <= self.interruption_ms:
            return ReschedulingDecision(
                reschedule=False,
                bandwidth_saving_gbps=bandwidth_saving,
                latency_saving_ms_per_round=latency_saving,
                benefit_ms=benefit,
                interruption_ms=self.interruption_ms,
                reason=(
                    f"benefit {benefit:.3f} ms does not exceed the "
                    f"{self.interruption_ms} ms interruption"
                ),
            )
        return ReschedulingDecision(
            reschedule=True,
            bandwidth_saving_gbps=bandwidth_saving,
            latency_saving_ms_per_round=latency_saving,
            benefit_ms=benefit,
            interruption_ms=self.interruption_ms,
            reason=(
                f"saves {bandwidth_saving:.3f} Gbps and {latency_saving:.3f} "
                f"ms/round over {rounds_left} rounds"
            ),
        )

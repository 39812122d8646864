"""Training-iteration predictability (poster §1, question 2).

"Predictability of training iteration can be leveraged to optimize
scheduling."  Synchronous federated rounds are highly regular: the same
model, the same devices, the same transfers, round after round.
:class:`IterationPredictor` exploits that regularity with an
exponentially-weighted moving average (EWMA) per task, plus a jitter
estimate, so control-plane decisions (when to re-schedule, when the next
upload wave will hit the network) can be made on *predicted* round times
instead of stale one-shot measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError


@dataclass(frozen=True)
class IterationEstimate:
    """Prediction for a task's next training round.

    Attributes:
        expected_ms: EWMA of observed round durations.
        jitter_ms: EWMA of absolute deviation (RFC 6298-style).
        observations: rounds observed so far.
    """

    expected_ms: float
    jitter_ms: float
    observations: int

    @property
    def pessimistic_ms(self) -> float:
        """Expected duration plus four jitter deviations (a safe bound)."""
        return self.expected_ms + 4.0 * self.jitter_ms


class IterationPredictor:
    """Online per-task round-duration estimation.

    Args:
        alpha: EWMA gain for the mean (0 < alpha <= 1); higher tracks
            changes faster, lower smooths noise.
        beta: EWMA gain for the jitter estimate.
    """

    def __init__(self, alpha: float = 0.25, beta: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ConfigurationError(f"beta must be in (0, 1], got {beta}")
        self._alpha = alpha
        self._beta = beta
        self._mean: Dict[str, float] = {}
        self._jitter: Dict[str, float] = {}
        self._count: Dict[str, int] = {}

    def observe(self, task_id: str, round_ms: float) -> IterationEstimate:
        """Record one completed round's duration and return the update."""
        if round_ms < 0:
            raise ConfigurationError(
                f"round duration must be >= 0 ms, got {round_ms}"
            )
        if task_id not in self._mean:
            self._mean[task_id] = round_ms
            self._jitter[task_id] = 0.0
            self._count[task_id] = 1
        else:
            deviation = abs(round_ms - self._mean[task_id])
            self._jitter[task_id] = (
                (1 - self._beta) * self._jitter[task_id] + self._beta * deviation
            )
            self._mean[task_id] = (
                (1 - self._alpha) * self._mean[task_id] + self._alpha * round_ms
            )
            self._count[task_id] += 1
        return self.estimate(task_id)

    def estimate(self, task_id: str) -> Optional[IterationEstimate]:
        """Current prediction, or ``None`` before any observation."""
        if task_id not in self._mean:
            return None
        return IterationEstimate(
            expected_ms=self._mean[task_id],
            jitter_ms=self._jitter[task_id],
            observations=self._count[task_id],
        )

    def forget(self, task_id: str) -> None:
        """Drop a completed task's state."""
        self._mean.pop(task_id, None)
        self._jitter.pop(task_id, None)
        self._count.pop(task_id, None)

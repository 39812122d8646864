"""Events and the time-ordered event queue.

Events are ordered by ``(time, priority, sequence)``.  The monotonically
increasing sequence number makes ordering *stable*: two events scheduled for
the same instant with equal priority fire in scheduling order, which keeps
simulations deterministic across runs and platforms.  The heap holds
``(time, priority, sequence, event)`` tuples, so the unique sequence
settles every comparison before an event is compared.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

#: Default event priority; lower fires first among same-time events.
DEFAULT_PRIORITY = 10


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: simulated time (ms) at which the event fires.
        priority: tie-breaker among events at the same time (lower first).
        sequence: insertion counter, the final tie-breaker.
        action: zero-argument callable executed when the event fires.
        name: human-readable label used in traces and error messages.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.
    """

    time: float
    priority: int
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A stable min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        sequence = next(self._counter)
        event = Event(time, priority, sequence, action, name)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

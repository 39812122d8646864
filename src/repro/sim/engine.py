"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the event queue.  Components schedule
callbacks with :meth:`Simulator.schedule` (absolute time) or
:meth:`Simulator.schedule_in` (relative delay) and the engine runs them in
time order.  The engine never advances the clock backwards and detects
runaway simulations via an optional event budget.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from .events import DEFAULT_PRIORITY, Event, EventQueue


class Simulator:
    """Deterministic discrete-event simulator with a millisecond clock.

    Args:
        start_time: initial simulated time in ms (default 0).
        max_events: safety budget; :meth:`run` raises
            :class:`~repro.errors.SimulationError` after executing this many
            events, catching accidental infinite event loops.
    """

    def __init__(self, start_time: float = 0.0, max_events: int = 10_000_000) -> None:
        if start_time < 0:
            raise SimulationError(f"start_time must be >= 0, got {start_time}")
        if max_events <= 0:
            raise SimulationError(f"max_events must be > 0, got {max_events}")
        self._now = start_time
        self._queue = EventQueue()
        self._max_events = max_events
        self._executed = 0
        self._running = False
        self._trace: list[tuple[float, str]] = []
        self.trace_enabled = False

    @property
    def now(self) -> float:
        """Current simulated time in ms."""
        return self._now

    @property
    def trace(self) -> list[tuple[float, str]]:
        """Recorded ``(time, event-name)`` pairs when tracing is enabled."""
        return list(self._trace)

    def schedule(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulated ``time``.

        Raises:
            SimulationError: if ``time`` is in the simulated past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {name!r} at {time} ms; clock is at {self._now} ms"
            )
        return self._queue.push(time, action, priority=priority, name=name)

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay`` in ms."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, action, priority=priority, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Execute events in time order.

        Args:
            until: stop once the clock would pass this time; remaining
                events stay queued.  ``None`` drains the queue.

        Returns:
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                event = self._queue.pop()
                assert event is not None  # peek said there is one
                self._now = event.time
                self._executed += 1
                if self._executed > self._max_events:
                    raise SimulationError(
                        f"event budget of {self._max_events} exhausted; "
                        "likely a runaway simulation"
                    )
                if self.trace_enabled:
                    self._trace.append((event.time, event.name))
                event.action()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

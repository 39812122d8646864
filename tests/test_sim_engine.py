"""Tests for the discrete-event engine and event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(5.0, lambda: order.append("late"))
        queue.push(1.0, lambda: order.append("early"))
        queue.push(3.0, lambda: order.append("middle"))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["early", "middle", "late"]

    def test_same_time_fires_in_insertion_order(self):
        queue = EventQueue()
        order = []
        for label in ("first", "second", "third"):
            queue.push(2.0, lambda l=label: order.append(l))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["first", "second", "third"]

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("low"), priority=20)
        queue.push(2.0, lambda: order.append("high"), priority=1)
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["high", "low"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        victim = queue.push(1.0, lambda: fired.append("victim"))
        queue.push(2.0, lambda: fired.append("survivor"))
        victim.cancel()
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["survivor"]

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 5.0

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(-1.0, lambda: None)

    def test_events_order_by_time_priority_sequence(self):
        def make(time, priority, sequence):
            return Event(time, priority, sequence, lambda: None)

        late = make(2.0, 0, 0)
        low = make(1.0, 5, 1)
        high = make(1.0, 1, 2)
        second = make(1.0, 5, 3)
        assert sorted([late, second, low, high]) == [high, low, second, late]

    def test_heap_compares_no_events(self, monkeypatch):
        """Count floor: heap order is settled by key tuples alone."""
        calls = []
        less = Event.__lt__

        def counted(self, other):
            calls.append(1)
            return less(self, other)

        monkeypatch.setattr(Event, "__lt__", counted)
        queue = EventQueue()
        fired = []
        for i in range(40):
            queue.push(float(i % 3), lambda i=i: fired.append(i), priority=i % 2)
        while (event := queue.pop()) is not None:
            event.action()
        assert calls == []
        expected = sorted(range(40), key=lambda i: (i % 3, i % 2, i))
        assert fired == expected


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_advances_clock_to_last_event(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.schedule(25.0, lambda: None)
        assert sim.run() == 25.0

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_in(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_events_see_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append(sim.now))
        sim.schedule(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0, 7.0]

    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(100))
        sim.run(until=50.0)
        assert fired == [1]
        assert sim.now == 50.0
        # Exactly one event is left queued.
        assert sim.run() == 100.0
        assert fired == [1, 100]
        assert sim.run() == 100.0
        assert fired == [1, 100]

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(100))
        sim.run(until=50.0)
        sim.run()
        assert fired == [1, 100]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: sim.schedule(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_in(5.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 6.0

    def test_event_budget_catches_runaway(self):
        sim = Simulator(max_events=100)

        def loop():
            sim.schedule_in(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_executed_events_counter(self):
        # The executed-event count is what the max_events budget checks:
        # five events fit a budget of five, a sixth exceeds it.
        sim = Simulator(max_events=5)
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        sim.run()
        sim.schedule(9.0, lambda: None)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_run_until_executes_events_due_by_then(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.0)
        assert fired == [1]
        sim.run(until=2.0)
        assert fired == [1, 2]

    def test_trace_records_names(self):
        sim = Simulator()
        sim.trace_enabled = True
        sim.schedule(1.0, lambda: None, name="alpha")
        sim.schedule(2.0, lambda: None, name="beta")
        sim.run()
        assert sim.trace == [(1.0, "alpha"), (2.0, "beta")]

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_invalid_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=-1.0)

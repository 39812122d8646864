"""Tests for the re-scheduling policy (challenge #1)."""

import pytest

from repro.core.flexible import FlexibleScheduler
from repro.core.rescheduling import ReschedulingPolicy
from repro.errors import SchedulingError
from repro.network.topology import metro_mesh

from tests.conftest import make_mesh_task


@pytest.fixture
def congested_then_clear():
    """Network scheduled under congestion whose load then departs.

    Returns (network, task, incumbent schedule, scheduler).
    """
    net = metro_mesh(n_sites=8, servers_per_site=2)
    scheduler = FlexibleScheduler()
    task = make_mesh_task(net, 5, task_id="resched", demand_gbps=10.0, rounds=40)
    # Load every ring edge in the schedule-time snapshot.
    for i in range(8):
        u, v = f"RT-{i}", f"RT-{(i + 1) % 8}"
        net.reserve_edge(u, v, 85.0, f"bg-{i}")
        net.reserve_edge(v, u, 85.0, f"bg-r{i}")
    incumbent = scheduler.schedule(task, net)
    # Background departs: conditions changed.
    for i in range(8):
        net.release_owner(f"bg-{i}")
        net.release_owner(f"bg-r{i}")
    return net, task, incumbent, scheduler


class TestDecision:
    def test_cheap_interruption_approves(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        policy = ReschedulingPolicy(interruption_ms=0.001)
        decision = policy.evaluate(task, incumbent, net, scheduler)
        assert decision.reschedule
        assert decision.benefit_ms > decision.interruption_ms

    def test_expensive_interruption_blocks(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        policy = ReschedulingPolicy(interruption_ms=1e9)
        decision = policy.evaluate(task, incumbent, net, scheduler)
        assert not decision.reschedule
        assert "interruption" in decision.reason

    def test_no_remaining_rounds_blocks(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        policy = ReschedulingPolicy(interruption_ms=0.001)
        decision = policy.evaluate(
            task, incumbent, net, scheduler, remaining_rounds=0
        )
        assert not decision.reschedule
        assert "remaining" in decision.reason

    def test_benefit_scales_with_remaining_rounds(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        policy = ReschedulingPolicy(interruption_ms=0.001)
        few = policy.evaluate(task, incumbent, net, scheduler, remaining_rounds=2)
        many = policy.evaluate(task, incumbent, net, scheduler, remaining_rounds=50)
        assert many.benefit_ms > few.benefit_ms

    def test_bandwidth_threshold_hysteresis(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        policy = ReschedulingPolicy(
            interruption_ms=0.001, min_bandwidth_saving_gbps=1e6
        )
        decision = policy.evaluate(task, incumbent, net, scheduler)
        assert not decision.reschedule
        assert "threshold" in decision.reason

    def test_live_network_untouched(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        before = net.total_reserved_gbps()
        ReschedulingPolicy(interruption_ms=0.001).evaluate(
            task, incumbent, net, scheduler
        )
        assert net.total_reserved_gbps() == pytest.approx(before)

    def test_weight_zero_never_approves(self, congested_then_clear):
        net, task, incumbent, scheduler = congested_then_clear
        policy = ReschedulingPolicy(
            interruption_ms=0.001, remaining_rounds_weight=0.0
        )
        assert not policy.evaluate(task, incumbent, net, scheduler).reschedule


class TestValidation:
    def test_negative_interruption_rejected(self):
        with pytest.raises(SchedulingError):
            ReschedulingPolicy(interruption_ms=-1.0)

    def test_invalid_weight_rejected(self):
        with pytest.raises(SchedulingError):
            ReschedulingPolicy(remaining_rounds_weight=1.5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(SchedulingError):
            ReschedulingPolicy(min_bandwidth_saving_gbps=-1.0)

"""Tests for the event-driven round executor (vs the analytic model)."""

import pytest

from repro.core.baselines import ChainScheduler
from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.core.prediction import IterationPredictor
from repro.core.simulation import RoundExecutor
from repro.errors import SchedulingError
from repro.network.topology import metro_mesh, spine_leaf
from repro.sim.engine import Simulator

from tests.conftest import make_mesh_task


def executed_and_analytic(net, scheduler, n_locals=6, config=None):
    task = make_mesh_task(net, n_locals)
    schedule = scheduler.schedule(task, net)
    analytic = ScheduleEvaluator(net, config).round_latency(schedule)
    executor = RoundExecutor(net, schedule, config)
    executed = executor.execute_round(Simulator())
    return executed, analytic


class TestAgreementWithAnalyticModel:
    def test_fixed_matches_exactly(self, mesh_net):
        executed, analytic = executed_and_analytic(mesh_net, FixedScheduler())
        assert executed.total_ms == pytest.approx(analytic.total_ms, rel=1e-9)

    @pytest.mark.parametrize("scheduler_cls", [FlexibleScheduler, ChainScheduler])
    def test_tree_schedulers_agree_closely(self, mesh_net, scheduler_cls):
        executed, analytic = executed_and_analytic(mesh_net, scheduler_cls())
        assert executed.total_ms == pytest.approx(analytic.total_ms, rel=0.1)

    def test_agreement_on_spine_leaf(self):
        net = spine_leaf(n_spines=4, n_leaves=10, servers_per_leaf=2)
        executed, analytic = executed_and_analytic(net, FlexibleScheduler())
        assert executed.total_ms == pytest.approx(analytic.total_ms, rel=0.1)

    def test_broadcast_done_is_max_receive(self, mesh_net):
        task = make_mesh_task(mesh_net, 5)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        executed = RoundExecutor(mesh_net, schedule).execute_round(Simulator())
        assert executed.broadcast_done_ms == pytest.approx(
            max(executed.per_local_receive_ms.values())
        )
        assert set(executed.per_local_receive_ms) == set(task.local_nodes)

    def test_control_overhead_included(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FixedScheduler().schedule(task, mesh_net)
        base = RoundExecutor(mesh_net, schedule).execute_round(Simulator())
        config = EvaluationConfig(control_overhead_ms=7.0)
        loaded = RoundExecutor(mesh_net, schedule, config).execute_round(Simulator())
        assert loaded.total_ms == pytest.approx(base.total_ms + 7.0)

    def test_early_receivers_train_early(self, mesh_net):
        """The executor's training overlap is at least as tight as the
        analytic model, which gates every local on the slowest broadcast."""
        executed, analytic = executed_and_analytic(mesh_net, FlexibleScheduler(), 8)
        receives = executed.per_local_receive_ms.values()
        assert min(receives) < max(receives) or len(set(receives)) == 1

    def test_speed_fn_respected(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FixedScheduler().schedule(task, mesh_net)
        fast = RoundExecutor(
            mesh_net, schedule, speed_fn=lambda n: 1e9
        ).execute_round(Simulator())
        slow = RoundExecutor(
            mesh_net, schedule, speed_fn=lambda n: 1_000.0
        ).execute_round(Simulator())
        assert slow.total_ms > fast.total_ms


class TestMultiRound:
    def test_rounds_advance_the_clock(self, mesh_net):
        task = make_mesh_task(mesh_net, 4, rounds=3)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        sim = Simulator()
        results = RoundExecutor(mesh_net, schedule).run_rounds(sim)
        assert len(results) == 3
        assert sim.now == pytest.approx(sum(r.upload_done_ms for r in results))

    def test_rounds_are_identical_without_noise(self, mesh_net):
        task = make_mesh_task(mesh_net, 4, rounds=3)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        results = RoundExecutor(mesh_net, schedule).run_rounds(Simulator())
        totals = {round(r.total_ms, 9) for r in results}
        assert len(totals) == 1

    def test_observer_feeds_predictor(self, mesh_net):
        task = make_mesh_task(mesh_net, 4, rounds=4)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        predictor = IterationPredictor()
        RoundExecutor(mesh_net, schedule).run_rounds(
            Simulator(), observer=predictor.observe
        )
        estimate = predictor.estimate(task.task_id)
        assert estimate is not None
        assert estimate.observations == 4
        assert estimate.jitter_ms == pytest.approx(0.0, abs=1e-6)

    def test_zero_rounds_rejected(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        with pytest.raises(SchedulingError):
            RoundExecutor(mesh_net, schedule).run_rounds(Simulator(), rounds=0)

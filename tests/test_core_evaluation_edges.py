"""Edge-case tests for schedule evaluation."""

import pytest

from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import SchedulingError
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.tasks.aitask import AITask
from repro.tasks.models import MLModelSpec, get_model

from tests.conftest import make_mesh_task


def tiny_model():
    return MLModelSpec("tiny", parameters=1e5, train_gflop_per_round=1.0)


class TestSingleLocal:
    def test_single_local_no_merges(self, line_net):
        task = AITask(
            task_id="solo",
            model=get_model("resnet18"),
            global_node="S1",
            local_nodes=("S2",),
        )
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            net = line_net.copy_topology()
            schedule = scheduler.schedule(task, net)
            report = ScheduleEvaluator(net).report(schedule)
            # One local: nothing to merge anywhere.
            assert report.aggregation_nodes == ()

    def test_single_local_schedulers_agree(self, line_net):
        task = AITask(
            task_id="solo",
            model=get_model("resnet18"),
            global_node="S1",
            local_nodes=("S2",),
        )
        reports = {}
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            net = line_net.copy_topology()
            schedule = scheduler.schedule(task, net)
            reports[scheduler.name] = ScheduleEvaluator(net).report(schedule)
        assert reports["fixed-spff"].round_latency.total_ms == pytest.approx(
            reports["flexible-mst"].round_latency.total_ms, rel=0.02
        )


class TestRoadmBranchUpload:
    """A ROADM branch point forces multi-payload edges; the evaluator and
    the scheduler must account for them consistently."""

    @pytest.fixture
    def roadm_star(self):
        net = Network("roadm-star")
        net.add_node("G", NodeKind.SERVER)
        net.add_node("OXC", NodeKind.ROADM)
        for i in (1, 2, 3):
            net.add_node(f"L{i}", NodeKind.SERVER)
            net.add_link(f"L{i}", "OXC", 100.0, distance_km=5.0)
        net.add_link("OXC", "G", 100.0, distance_km=5.0)
        return net

    def test_merges_land_at_root_only(self, roadm_star):
        task = AITask(
            task_id="oxc",
            model=tiny_model(),
            global_node="G",
            local_nodes=("L1", "L2", "L3"),
            demand_gbps=10.0,
        )
        schedule = FlexibleScheduler().schedule(task, roadm_star)
        report = ScheduleEvaluator(roadm_star).report(schedule)
        assert report.aggregation_nodes == ("G",)

    def test_trunk_reserved_for_all_payloads(self, roadm_star):
        task = AITask(
            task_id="oxc",
            model=tiny_model(),
            global_node="G",
            local_nodes=("L1", "L2", "L3"),
            demand_gbps=10.0,
        )
        schedule = FlexibleScheduler().schedule(task, roadm_star)
        # Three un-merged payloads cross OXC -> G.
        assert schedule.upload_edge_rates[("OXC", "G")] == pytest.approx(30.0)


class TestMissingRateDetection:
    def test_missing_tree_rate_raises(self, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        broken = type(schedule)(
            task=schedule.task,
            scheduler=schedule.scheduler,
            broadcast_tree=schedule.broadcast_tree,
            upload_plan=schedule.upload_plan,
            broadcast_edge_rates={},  # wiped
            upload_edge_rates=schedule.upload_edge_rates,
        )
        with pytest.raises(SchedulingError):
            ScheduleEvaluator(mesh_net).round_latency(broken)

    def test_invalid_speed_fn_raises(self, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        schedule = FixedScheduler().schedule(task, mesh_net)
        evaluator = ScheduleEvaluator(mesh_net, speed_fn=lambda n: 0.0)
        with pytest.raises(SchedulingError):
            evaluator.round_latency(schedule)


class TestRelayOverheadKnob:
    def test_overhead_only_affects_trees_with_relays(self, mesh_net):
        task = make_mesh_task(mesh_net, 6)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        cheap = ScheduleEvaluator(
            mesh_net, EvaluationConfig(relay_overhead_ms=0.0)
        ).round_latency(schedule)
        dear = ScheduleEvaluator(
            mesh_net, EvaluationConfig(relay_overhead_ms=50.0)
        ).round_latency(schedule)
        assert dear.total_ms >= cheap.total_ms

    def test_fixed_schedules_ignore_relay_overhead(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FixedScheduler().schedule(task, mesh_net)
        cheap = ScheduleEvaluator(
            mesh_net, EvaluationConfig(relay_overhead_ms=0.0)
        ).round_latency(schedule)
        dear = ScheduleEvaluator(
            mesh_net, EvaluationConfig(relay_overhead_ms=50.0)
        ).round_latency(schedule)
        assert dear.total_ms == pytest.approx(cheap.total_ms)


class TestExecutedMeasurementMode:
    def test_fig3_executed_mode_runs(self):
        from repro.experiments.fig3 import Fig3Config, run_fig3

        config = Fig3Config(
            n_locals_values=(3,), n_tasks=3, seed=2, measurement="executed"
        )
        result = run_fig3(config)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["round_ms"] > 0

    def test_executed_close_to_analytic(self):
        from repro.experiments.fig3 import Fig3Config, run_fig3

        analytic = run_fig3(
            Fig3Config(n_locals_values=(5,), n_tasks=4, seed=2)
        )
        executed = run_fig3(
            Fig3Config(
                n_locals_values=(5,), n_tasks=4, seed=2, measurement="executed"
            )
        )
        for a_row, e_row in zip(analytic.rows, executed.rows):
            assert e_row["round_ms"] == pytest.approx(
                a_row["round_ms"], rel=0.1
            )

    def test_invalid_measurement_rejected(self):
        from repro.errors import ConfigurationError
        from repro.experiments.fig3 import Fig3Config

        with pytest.raises(ConfigurationError):
            Fig3Config(measurement="magic")

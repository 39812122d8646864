"""Tests for the orchestrator façade."""

import pytest

from repro.compute.manager import ComputingManager
from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.core.rescheduling import ReschedulingPolicy
from repro.errors import OrchestrationError
from repro.network.topology import dumbbell, metro_mesh
from repro.orchestrator.campaign import CampaignRunner
from repro.orchestrator.database import TaskStatus
from repro.orchestrator.orchestrator import Orchestrator, build_servers_for
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from tests.conftest import make_mesh_task


@pytest.fixture
def orchestrator(mesh_net):
    return Orchestrator(mesh_net, FlexibleScheduler())


class TestBuildServers:
    def test_one_server_per_hosting_node(self, mesh_net):
        manager = ComputingManager()
        servers = build_servers_for(mesh_net, manager)
        assert len(servers) == len(mesh_net.servers())
        assert {s.node for s in servers} == set(mesh_net.servers())


class TestAdmission:
    def test_successful_admission_runs_task(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        record = orchestrator.admit(task)
        assert record.status is TaskStatus.RUNNING
        assert record.schedule is not None
        assert orchestrator.sdn.rules_of(task.task_id)
        assert mesh_net.owner_total_gbps(task.task_id) > 0

    def test_containers_deployed_for_all_models(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        orchestrator.admit(task)
        assert orchestrator.compute.total_containers == 5  # global + 4 locals

    def test_scheduling_failure_blocks_and_rolls_back(self):
        net = dumbbell(bottleneck_gbps=10.0)
        net.reserve_edge("RT-L", "RT-R", 10.0, "bg")
        orchestrator = Orchestrator(net, FixedScheduler())
        task = AITask(
            task_id="doomed",
            model=get_model("resnet18"),
            global_node="SRV-L-0",
            local_nodes=("SRV-R-0",),
            demand_gbps=10.0,
        )
        record = orchestrator.admit(task)
        assert record.status is TaskStatus.BLOCKED
        assert net.owner_total_gbps("doomed") == 0.0
        assert orchestrator.compute.total_containers == 0
        assert orchestrator.blocking_ratio == 1.0

    def test_placement_failure_blocks(self, mesh_net):
        manager = ComputingManager()
        build_servers_for(mesh_net, manager, gpu_gflops=1_000.0)
        orchestrator = Orchestrator(
            mesh_net,
            FlexibleScheduler(),
            compute=manager,
            container_gflops=50_000.0,  # no server can host this
        )
        record = orchestrator.admit(make_mesh_task(mesh_net, 3))
        assert record.status is TaskStatus.BLOCKED

    def test_admission_logged(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        orchestrator.admit(task)
        assert any(task.task_id in msg for _t, msg in orchestrator.database.events)


class TestCompletion:
    def test_complete_releases_everything(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        orchestrator.admit(task)
        orchestrator.complete(task.task_id)
        record = orchestrator.database.record(task.task_id)
        assert record.status is TaskStatus.COMPLETED
        assert mesh_net.total_reserved_gbps() == 0.0
        assert orchestrator.compute.total_containers == 0
        assert orchestrator.sdn.total_rules == 0

    def test_complete_non_running_rejected(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        orchestrator.admit(task)
        orchestrator.complete(task.task_id)
        with pytest.raises(OrchestrationError):
            orchestrator.complete(task.task_id)


class TestEvaluation:
    def test_evaluate_uses_container_speed(self, mesh_net):
        orchestrator = Orchestrator(
            mesh_net, FlexibleScheduler(), container_gflops=5_000.0
        )
        task = make_mesh_task(mesh_net, 3)
        orchestrator.admit(task)
        report = orchestrator.evaluate(task.task_id)
        expected_train = 1000.0 * task.model.train_gflop_per_round / 5_000.0
        assert report.round_latency.training_ms == pytest.approx(expected_train)

    def test_evaluate_unscheduled_rejected(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        orchestrator.tasks.submit(task)  # pending, never scheduled
        with pytest.raises(OrchestrationError):
            orchestrator.evaluate(task.task_id)


    def test_evaluate_completed_rejected(self, orchestrator, mesh_net):
        """A completed task keeps its schedule record but no capacity."""
        task = make_mesh_task(mesh_net, 3)
        record = orchestrator.admit(task)
        orchestrator.complete(task.task_id)
        assert record.schedule is not None
        with pytest.raises(OrchestrationError, match="not running"):
            orchestrator.evaluate(task.task_id)
        assert record.evaluated is None


class TestReportMemo:
    """One report per live schedule: kept on the record, dropped on release."""

    def _count_reports(self, monkeypatch):
        calls = []
        report = ScheduleEvaluator.report

        def counted(self, schedule):
            calls.append(schedule)
            return report(self, schedule)

        monkeypatch.setattr(ScheduleEvaluator, "report", counted)
        return calls

    def test_campaign_rounds_share_one_report(self, monkeypatch, mesh_net):
        calls = self._count_reports(monkeypatch)
        orchestrator = Orchestrator(mesh_net, FlexibleScheduler())
        task = make_mesh_task(mesh_net, 4, rounds=5)
        reports = []
        evaluate = orchestrator.evaluate

        def recorded(task_id):
            reports.append(evaluate(task_id))
            return reports[-1]

        orchestrator.evaluate = recorded
        result = CampaignRunner(orchestrator, [task]).run()
        assert result.outcomes[task.task_id].rounds_run == 5
        assert len(reports) == 5
        assert all(report is reports[0] for report in reports)
        assert len(calls) == 1

    def test_rescheduled_task_gets_a_new_report(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        record = orchestrator.admit(task)
        first = orchestrator.evaluate(task.task_id)
        old_schedule = record.schedule
        hosts = {task.global_node, *task.local_nodes}
        u, v = next(
            (u, v)
            for u, v in old_schedule.occupied_edges()
            if u not in hosts and v not in hosts
        )
        outcomes = orchestrator.handle_link_failure(u, v)
        assert outcomes == {task.task_id: True}
        assert record.schedule is not old_schedule
        assert record.evaluated is None
        second = orchestrator.evaluate(task.task_id)
        assert second is not first
        assert record.evaluated == (record.schedule, orchestrator.evaluation, second)
        assert orchestrator.evaluate(task.task_id) is second

    def test_replaced_config_yields_a_fresh_report(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        record = orchestrator.admit(task)
        first = orchestrator.evaluate(task.task_id)
        # An equal config is still a new object: the memo keys on identity.
        orchestrator.evaluation = EvaluationConfig()
        assert orchestrator.evaluate(task.task_id) is not first
        orchestrator.evaluation = EvaluationConfig(relay_overhead_ms=1.0)
        third = orchestrator.evaluate(task.task_id)
        expected = ScheduleEvaluator(
            mesh_net,
            orchestrator.evaluation,
            speed_fn=orchestrator._speed_fn(record.task),
        ).report(record.schedule)
        assert third == expected
        assert third != first

    def test_complete_drops_the_report(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        record = orchestrator.admit(task)
        orchestrator.evaluate(task.task_id)
        assert record.evaluated is not None
        orchestrator.complete(task.task_id)
        assert record.evaluated is None

    def test_block_drops_the_report(self, orchestrator, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        record = orchestrator.admit(task)
        orchestrator.evaluate(task.task_id)
        outcomes = orchestrator.handle_node_failure(task.local_nodes[0])
        assert outcomes == {task.task_id: False}
        assert record.status is TaskStatus.BLOCKED
        assert record.schedule is None and record.evaluated is None
        with pytest.raises(OrchestrationError):
            orchestrator.evaluate(task.task_id)


class TestReschedulePass:
    def test_requires_policy(self, orchestrator, mesh_net):
        orchestrator.admit(make_mesh_task(mesh_net, 3))
        with pytest.raises(OrchestrationError):
            orchestrator.reschedule_pass()

    def test_reschedules_when_conditions_improve(self):
        net = metro_mesh(n_sites=8, servers_per_site=2)
        orchestrator = Orchestrator(
            net,
            FlexibleScheduler(),
            rescheduling=ReschedulingPolicy(interruption_ms=0.001),
        )
        # Congest the ring, admit, then clear.
        for i in range(8):
            u, v = f"RT-{i}", f"RT-{(i + 1) % 8}"
            net.reserve_edge(u, v, 85.0, f"bg-{i}")
            net.reserve_edge(v, u, 85.0, f"bg-r{i}")
        task = make_mesh_task(net, 5, rounds=40)
        orchestrator.admit(task)
        for i in range(8):
            net.release_owner(f"bg-{i}")
            net.release_owner(f"bg-r{i}")
        outcomes = orchestrator.reschedule_pass()
        assert outcomes[task.task_id] is True
        record = orchestrator.database.record(task.task_id)
        assert record.reschedules == 1
        # New rules installed for the new schedule.
        assert orchestrator.sdn.rules_of(task.task_id)

    def test_no_churn_when_nothing_improves(self, mesh_net):
        orchestrator = Orchestrator(
            mesh_net,
            FlexibleScheduler(),
            rescheduling=ReschedulingPolicy(interruption_ms=5.0),
        )
        task = make_mesh_task(mesh_net, 4)
        orchestrator.admit(task)
        outcomes = orchestrator.reschedule_pass()
        assert outcomes[task.task_id] is False
        assert orchestrator.database.record(task.task_id).reschedules == 0


class TestRunWorkload:
    def test_reports_for_running_tasks(self, mesh_net):
        from repro.tasks.workload import WorkloadConfig, generate_workload

        # Modest per-container GPU demand so five concurrent tasks fit the
        # default 100k-GFLOPS servers even when placements collide.
        orchestrator = Orchestrator(
            mesh_net, FlexibleScheduler(), container_gflops=5_000.0
        )
        workload = generate_workload(
            mesh_net, WorkloadConfig(n_tasks=5, n_locals=3, demand_gbps=2.0)
        )
        reports = orchestrator.run_workload(workload)
        assert len(reports) == 5
        assert all(r.consumed_bandwidth_gbps > 0 for r in reports)

    def test_invalid_container_gflops_rejected(self, mesh_net):
        with pytest.raises(OrchestrationError):
            Orchestrator(mesh_net, FlexibleScheduler(), container_gflops=0.0)

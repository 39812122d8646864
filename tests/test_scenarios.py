"""Scenario tests: larger instances and WAN-specific behaviour."""

import pytest

from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.network.topology import nsfnet, random_geometric
from repro.orchestrator.database import TaskStatus
from repro.orchestrator.orchestrator import Orchestrator
from repro.sim.rng import RandomStreams
from repro.tasks.workload import WorkloadConfig, generate_workload
from repro.transport.protocols import TcpTransport

from tests.conftest import make_mesh_task


class TestLargeRandomFabric:
    @pytest.fixture(scope="class")
    def big_net(self):
        return random_geometric(40, seed=9, servers_per_site=1)

    @pytest.mark.parametrize("scheduler_cls", [FixedScheduler, FlexibleScheduler])
    def test_twenty_tasks_serve_and_release(self, big_net, scheduler_cls):
        net = big_net.copy_topology()
        orchestrator = Orchestrator(
            net, scheduler_cls(), container_gflops=5_000.0
        )
        workload = generate_workload(
            net,
            WorkloadConfig(n_tasks=20, n_locals=(2, 8), demand_gbps=4.0),
            RandomStreams(9),
        )
        served = 0
        for task in workload:
            record = orchestrator.admit(task)
            if record.status is TaskStatus.RUNNING:
                served += 1
                orchestrator.evaluate(task.task_id)
                orchestrator.complete(task.task_id)
        assert served >= 18  # a lightly loaded fabric serves ~everything
        assert net.total_reserved_gbps() == pytest.approx(0.0)

    def test_flexible_saves_bandwidth_at_scale(self, big_net):
        total = {"fixed-spff": 0.0, "flexible-mst": 0.0}
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            net = big_net.copy_topology()
            workload = generate_workload(
                net,
                WorkloadConfig(n_tasks=10, n_locals=6, demand_gbps=4.0),
                RandomStreams(10),
            )
            for task in workload:
                schedule = scheduler.schedule(task, net)
                total[scheduler.name] += schedule.consumed_bandwidth_gbps
                scheduler.release(schedule, net)
        assert total["flexible-mst"] < total["fixed-spff"]


class TestWanBehaviour:
    def test_tcp_window_binds_on_wan_paths(self):
        """On NSFNET's thousand-km spans the TCP window, not the reserved
        rate, limits goodput — the evaluator must reflect it."""
        net = nsfnet(servers_per_site=1)
        task = make_mesh_task(net, 4, task_id="wan", demand_gbps=50.0)
        schedule = FixedScheduler().schedule(task, net)
        small_window = EvaluationConfig(
            transport=TcpTransport(window_mb=8.0)
        )
        large_window = EvaluationConfig(
            transport=TcpTransport(window_mb=8_000.0)
        )
        slow = ScheduleEvaluator(net, small_window).round_latency(schedule)
        fast = ScheduleEvaluator(net, large_window).round_latency(schedule)
        assert slow.total_ms > fast.total_ms * 1.5

    def test_propagation_visible_in_wan_broadcast(self):
        net = nsfnet(servers_per_site=1)
        task = make_mesh_task(net, 4, task_id="wan")
        schedule = FlexibleScheduler().schedule(task, net)
        latency = ScheduleEvaluator(net).round_latency(schedule)
        # Multi-thousand-km paths: >= 5 ms of pure propagation.
        assert latency.broadcast_ms > 5.0


class TestWorkloadEdges:
    def test_degenerate_locals_range(self, mesh_net):
        workload = generate_workload(
            mesh_net, WorkloadConfig(n_tasks=5, n_locals=(1, 1))
        )
        assert all(task.n_locals == 1 for task in workload)

    def test_single_local_workload_schedules(self, mesh_net):
        workload = generate_workload(
            mesh_net, WorkloadConfig(n_tasks=3, n_locals=1)
        )
        scheduler = FlexibleScheduler()
        for task in workload:
            schedule = scheduler.schedule(task, mesh_net)
            assert schedule.consumed_bandwidth_gbps > 0
            scheduler.release(schedule, mesh_net)

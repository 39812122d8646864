"""Cross-module integration tests: whole pipelines on small instances."""

import pytest

from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.network.state import NetworkState
from repro.network.topology import metro_mesh, nsfnet, spine_leaf
from repro.orchestrator.database import TaskStatus
from repro.orchestrator.monitor import NetworkMonitor
from repro.orchestrator.orchestrator import Orchestrator
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.tasks.workload import WorkloadConfig, generate_workload
from repro.traffic.generator import TrafficGenerator
from repro.transport.protocols import RdmaTransport

from tests.conftest import make_mesh_task


class TestSequentialService:
    """The fig3 protocol: admit -> evaluate -> complete, task by task."""

    @pytest.mark.parametrize("scheduler_cls", [FixedScheduler, FlexibleScheduler])
    def test_network_returns_to_background_level(self, scheduler_cls):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        streams = RandomStreams(21)
        traffic = TrafficGenerator(net, streams)
        traffic.inject_static(15)
        background = net.total_reserved_gbps()

        orchestrator = Orchestrator(net, scheduler_cls())
        workload = generate_workload(
            net, WorkloadConfig(n_tasks=10, n_locals=5), streams
        )
        for task in workload:
            record = orchestrator.admit(task)
            assert record.status is TaskStatus.RUNNING
            orchestrator.evaluate(task.task_id)
            orchestrator.complete(task.task_id)
        assert net.total_reserved_gbps() == pytest.approx(background)

    def test_concurrent_tasks_coexist(self):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        orchestrator = Orchestrator(
            net, FlexibleScheduler(), container_gflops=5_000.0
        )
        workload = generate_workload(
            net,
            WorkloadConfig(n_tasks=8, n_locals=4, demand_gbps=3.0),
            RandomStreams(5),
        )
        reports = orchestrator.run_workload(workload)
        assert len(reports) == 8
        # Total reserved equals the sum over schedules.
        total = sum(r.consumed_bandwidth_gbps for r in reports)
        assert net.total_reserved_gbps() == pytest.approx(total)


class TestMonitoredScenario:
    def test_monitor_observes_task_lifecycle(self):
        net = metro_mesh(n_sites=8, servers_per_site=2)
        orchestrator = Orchestrator(net, FlexibleScheduler())
        monitor = NetworkMonitor(net, orchestrator.database, period_ms=10.0)
        sim = Simulator()
        task = make_mesh_task(net, 4)

        sim.schedule(15.0, lambda: orchestrator.admit(task))
        sim.schedule(55.0, lambda: orchestrator.complete(task.task_id))
        monitor.start(sim, duration_ms=100.0)
        sim.run()

        # Snapshots taken while the task ran must show load; the final
        # snapshot must show none.
        db = orchestrator.database
        assert db.snapshot_count > 0
        assert db.latest_snapshot.total_used_gbps == pytest.approx(0.0)
        loads = [s for s in db._snapshots if s.total_used_gbps > 0]
        assert loads, "monitor never observed the running task"


class TestOtherFabrics:
    def test_wan_scale_nsfnet(self):
        net = nsfnet(servers_per_site=1)
        orchestrator = Orchestrator(net, FlexibleScheduler())
        task = make_mesh_task(net, 6, task_id="wan")
        record = orchestrator.admit(task)
        assert record.status is TaskStatus.RUNNING
        report = orchestrator.evaluate("wan")
        # WAN propagation dominates: hundreds of km of fibre on paths.
        assert report.round_latency.broadcast_ms > 1.0

    def test_spine_leaf_fabric(self):
        net = spine_leaf(n_spines=4, n_leaves=8, servers_per_leaf=2)
        orchestrator = Orchestrator(net, FlexibleScheduler())
        task = make_mesh_task(net, 6, task_id="dc")
        record = orchestrator.admit(task)
        assert record.status is TaskStatus.RUNNING
        report = orchestrator.evaluate("dc")
        # No aggregation at spines (pure optical).
        assert all(not n.startswith("SP-") for n in report.aggregation_nodes)


class TestTransportSwap:
    def test_rdma_evaluation_config(self):
        net = metro_mesh(n_sites=8, servers_per_site=2)
        task = make_mesh_task(net, 4)
        schedule = FlexibleScheduler().schedule(task, net)
        tcp_report = ScheduleEvaluator(net).report(schedule)
        rdma_report = ScheduleEvaluator(
            net, EvaluationConfig(transport=RdmaTransport())
        ).report(schedule)
        assert rdma_report.endpoint_cpu_ms < tcp_report.endpoint_cpu_ms

    def test_state_snapshot_matches_reservations(self):
        net = metro_mesh(n_sites=8, servers_per_site=2)
        task = make_mesh_task(net, 4)
        schedule = FlexibleScheduler().schedule(task, net)
        state = NetworkState.capture(net)
        assert state.total_used_gbps == pytest.approx(
            schedule.consumed_bandwidth_gbps
        )


class TestDynamicChurn:
    def test_tasks_and_traffic_share_fabric_over_time(self):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        streams = RandomStreams(11)
        orchestrator = Orchestrator(
            net, FlexibleScheduler(), container_gflops=5_000.0
        )
        traffic = TrafficGenerator(net, streams, rate_gbps=3.0)
        sim = Simulator()
        traffic.start(
            sim, duration_ms=300.0, mean_interarrival_ms=15.0, mean_holding_ms=40.0
        )
        workload = generate_workload(
            net,
            WorkloadConfig(
                n_tasks=6, n_locals=4, demand_gbps=4.0, mean_interarrival_ms=40.0
            ),
            streams,
        )
        admitted = []

        for task in workload:
            sim.schedule(
                task.arrival_ms,
                lambda t=task: admitted.append(orchestrator.admit(t)),
            )
        sim.run()
        running = [r for r in admitted if r.status is TaskStatus.RUNNING]
        assert running, "no task survived admission under churn"
        for record in running:
            orchestrator.complete(record.task.task_id)
        traffic.clear()
        assert net.total_reserved_gbps() == pytest.approx(0.0)

"""Tests for database, SDN controller, and monitor."""

import pytest

from repro.core.baselines import KspLoadBalancedScheduler
from repro.core.fixed import FixedScheduler
from repro.errors import OrchestrationError
from repro.network.state import NetworkState
from repro.orchestrator.database import Database, TaskStatus
from repro.orchestrator.monitor import NetworkMonitor
from repro.orchestrator.sdn import SdnController
from repro.sim.engine import Simulator

from tests.conftest import make_mesh_task


class TestDatabase:
    def test_insert_and_lookup(self, mesh_net):
        db = Database()
        task = make_mesh_task(mesh_net, 3)
        record = db.insert_task(task)
        assert db.record(task.task_id) is record
        assert record.status is TaskStatus.PENDING
        assert record.remaining_rounds == task.rounds

    def test_duplicate_id_rejected(self, mesh_net):
        db = Database()
        task = make_mesh_task(mesh_net, 3)
        db.insert_task(task)
        with pytest.raises(OrchestrationError):
            db.insert_task(task)

    def test_unknown_id_rejected(self):
        with pytest.raises(OrchestrationError):
            Database().record("ghost")

    def test_records_filter_by_status(self, mesh_net):
        db = Database()
        a = db.insert_task(make_mesh_task(mesh_net, 3, task_id="a"))
        b = db.insert_task(make_mesh_task(mesh_net, 3, task_id="b"))
        a.status = TaskStatus.RUNNING
        assert [r.task.task_id for r in db.running()] == ["a"]
        assert [r.task.task_id for r in db.records(TaskStatus.PENDING)] == ["b"]

    def test_snapshot_ring_buffer(self, mesh_net):
        db = Database(max_snapshots=3)
        for t in range(5):
            db.store_snapshot(NetworkState.capture(mesh_net, float(t)))
        assert db.snapshot_count == 3
        assert db.latest_snapshot.time_ms == 4.0

    def test_event_log(self):
        db = Database()
        db.log(1.0, "hello")
        db.log(2.0, "world")
        assert db.events == [(1.0, "hello"), (2.0, "world")]


class TestSdnController:
    def _schedule(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        return FixedScheduler().schedule(task, mesh_net)

    def test_install_creates_per_hop_rules(self, mesh_net):
        sdn = SdnController()
        schedule = self._schedule(mesh_net)
        config_ms = sdn.install(schedule)
        assert sdn.total_rules > 0
        assert config_ms == pytest.approx(sdn.total_rules * sdn.rule_install_ms)

    def test_rules_cover_occupied_edges(self, mesh_net):
        sdn = SdnController()
        schedule = self._schedule(mesh_net)
        sdn.install(schedule)
        rules = sdn.rules_of(schedule.task.task_id)
        ruled_edges = {(r.device, r.next_hop) for r in rules}
        for edge in schedule.occupied_edges():
            assert edge in ruled_edges

    @pytest.mark.parametrize("scheduler", [FixedScheduler, KspLoadBalancedScheduler])
    def test_every_route_hop_has_a_rule(self, mesh_net, scheduler):
        schedule = scheduler().schedule(make_mesh_task(mesh_net, 4), mesh_net)
        sdn = SdnController()
        sdn.install(schedule)
        rules = {
            (r.procedure, r.device, r.next_hop)
            for r in sdn.rules_of(schedule.task.task_id)
        }
        hops = {
            (procedure, src, dst)
            for procedure, routes in (
                ("broadcast", schedule.broadcast_routes),
                ("upload", schedule.upload_routes),
            )
            for path in routes.values()
            for src, dst in zip(path, path[1:])
        }
        assert hops and hops <= rules
        assert sdn.total_rules == len(rules)  # one rule per hop, no repeats

    def test_double_install_rejected(self, mesh_net):
        sdn = SdnController()
        schedule = self._schedule(mesh_net)
        sdn.install(schedule)
        with pytest.raises(OrchestrationError):
            sdn.install(schedule)

    def test_remove_clears_rules(self, mesh_net):
        sdn = SdnController()
        schedule = self._schedule(mesh_net)
        sdn.install(schedule)
        removed = sdn.remove(schedule.task.task_id)
        assert removed > 0
        assert sdn.total_rules == 0
        assert sdn.rules_of(schedule.task.task_id) == []

    def test_remove_unknown_is_zero(self):
        assert SdnController().remove("ghost") == 0

    def test_reconfiguration_counter(self, mesh_net):
        sdn = SdnController()
        schedule = self._schedule(mesh_net)
        sdn.install(schedule)
        sdn.remove(schedule.task.task_id)
        sdn.install(schedule)
        assert sdn.reconfigurations == 2

    def test_rules_on_device(self, mesh_net):
        sdn = SdnController()
        schedule = self._schedule(mesh_net)
        sdn.install(schedule)
        device = schedule.task.global_node
        assert all(r.device == device for r in sdn.rules_on(device))
        assert sdn.rules_on(device)

    def test_invalid_install_cost_rejected(self):
        with pytest.raises(OrchestrationError):
            SdnController(rule_install_ms=-1.0)


class TestMonitor:
    def test_report_once_stores_snapshot(self, mesh_net):
        db = Database()
        monitor = NetworkMonitor(mesh_net, db)
        snapshot = monitor.report_once(12.0)
        assert db.latest_snapshot is snapshot
        assert snapshot.time_ms == 12.0

    def test_periodic_reporting(self, mesh_net):
        db = Database()
        monitor = NetworkMonitor(mesh_net, db, period_ms=10.0)
        sim = Simulator()
        monitor.start(sim, duration_ms=50.0)
        sim.run()
        # Reports at 0,10,20,30,40 then the final one at 50.
        assert db.snapshot_count == 6
        assert db.latest_snapshot.time_ms == 50.0

    def test_double_start_rejected(self, mesh_net):
        monitor = NetworkMonitor(mesh_net, Database(), period_ms=10.0)
        sim = Simulator()
        monitor.start(sim, duration_ms=100.0)
        with pytest.raises(OrchestrationError):
            monitor.start(sim, duration_ms=100.0)

    def test_invalid_period_rejected(self, mesh_net):
        with pytest.raises(OrchestrationError):
            NetworkMonitor(mesh_net, Database(), period_ms=0.0)

"""Tests for link-failure injection and orchestrated recovery."""

import math

import pytest

from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import CapacityError, ConfigurationError
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.paths import hop_weight, latency_weight
from repro.network.routing import LatencyWeightSpec, get_cache
from repro.network.topology import metro_mesh
from repro.orchestrator.database import Database, TaskStatus
from repro.orchestrator.orchestrator import Orchestrator
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from tests.conftest import make_mesh_task


class TestLinkFailureState:
    def test_fail_and_restore(self, square_net):
        square_net.fail_link("A", "C")
        assert square_net.link("A", "C").failed
        assert [l.endpoints for l in square_net.failed_links()] == [("A", "C")]
        square_net.restore_link("A", "C")
        assert not square_net.link("A", "C").failed
        assert square_net.failed_links() == []

    def test_failed_link_refuses_reservations(self, square_net):
        square_net.fail_link("A", "C")
        with pytest.raises(CapacityError):
            square_net.reserve_edge("A", "C", 1.0, "task")

    def test_existing_reservations_survive_failure(self, square_net):
        square_net.reserve_edge("A", "C", 10.0, "task")
        square_net.fail_link("A", "C")
        assert square_net.link("A", "C").owner_gbps("A", "C", "task") == 10.0

    def test_owners_on_link(self, square_net):
        square_net.reserve_edge("A", "C", 1.0, "zeta")
        square_net.reserve_edge("C", "A", 1.0, "alpha")
        assert square_net.owners_on_link("A", "C") == ["alpha", "zeta"]


class TestFailRestoreIdempotence:
    """Double fail/restore must be safe: the injector replays timelines
    where a transition can race an orchestrator-driven state change."""

    def test_double_fail_is_idempotent(self, square_net):
        square_net.fail_link("A", "C")
        square_net.fail_link("A", "C")
        assert square_net.link("A", "C").failed
        square_net.restore_link("A", "C")
        assert not square_net.link("A", "C").failed

    def test_double_restore_is_idempotent(self, square_net):
        square_net.fail_link("A", "C")
        square_net.restore_link("A", "C")
        square_net.restore_link("A", "C")
        assert not square_net.link("A", "C").failed

    def test_restore_without_failure_is_harmless(self, square_net):
        square_net.restore_link("A", "C")
        assert not square_net.link("A", "C").failed
        square_net.reserve_edge("A", "C", 1.0, "task")  # still reservable

    def test_fail_restore_cycle_preserves_reservations(self, square_net):
        square_net.reserve_edge("A", "C", 7.0, "task")
        for _ in range(3):
            square_net.fail_link("A", "C")
            square_net.restore_link("A", "C")
        assert square_net.link("A", "C").owner_gbps("A", "C", "task") == 7.0


class TestRoutingAroundFailures:
    def test_latency_weight_infinite_on_failed(self, square_net):
        square_net.fail_link("A", "C")
        assert math.isinf(latency_weight(square_net)("A", "C"))

    def test_hop_weight_infinite_on_failed(self, square_net):
        square_net.fail_link("A", "C")
        assert math.isinf(hop_weight(square_net)("A", "C"))

    def test_dijkstra_detours(self, square_net):
        spec = LatencyWeightSpec(square_net)
        before = get_cache(square_net).shortest_path("A", "C", spec).nodes
        assert before == ("A", "C")
        square_net.fail_link("A", "C")
        after = get_cache(square_net).shortest_path("A", "C", spec).nodes
        assert after == ("A", "B", "C")

    def test_auxiliary_weight_infinite_on_failed(self, square_net):
        square_net.fail_link("A", "C")
        builder = AuxiliaryGraphBuilder(square_net, demand_gbps=1.0)
        assert math.isinf(builder.edge_weight("A", "C"))

    def test_restore_reopens_route(self, square_net):
        square_net.fail_link("A", "C")
        square_net.restore_link("A", "C")
        spec = LatencyWeightSpec(square_net)
        path = get_cache(square_net).shortest_path("A", "C", spec)
        assert path.nodes == ("A", "C")


class TestFailureStatePropagation:
    def test_copy_topology_carries_failures(self, square_net):
        square_net.fail_link("A", "C")
        clone = square_net.copy_topology()
        assert clone.link("A", "C").failed
        # ...and restores independently.
        clone.restore_link("A", "C")
        assert square_net.link("A", "C").failed

    def test_rescheduling_respects_failures(self):
        """The what-if scratch network must not route over dead links."""
        from repro.core.rescheduling import ReschedulingPolicy

        net = metro_mesh(n_sites=10, servers_per_site=2)
        scheduler = FlexibleScheduler()
        task = make_mesh_task(net, 4, task_id="scratch", rounds=40)
        incumbent = scheduler.schedule(task, net)
        # Fail a link the incumbent uses (if any inter-router one exists).
        edges = [e for e in incumbent.occupied_edges() if e[0].startswith("RT")]
        if not edges:
            pytest.skip("incumbent uses no inter-router edge")
        u, v = edges[0]
        net.fail_link(u, v)
        decision = ReschedulingPolicy(interruption_ms=0.001).evaluate(
            task, incumbent, net, scheduler
        )
        # Whatever the verdict, evaluating must not crash, and an
        # approved candidate must be reproducible on the live network
        # (i.e. it avoided the failed link on the scratch copy too).
        if decision.reschedule:
            scheduler.release(incumbent, net)
            fresh = scheduler.schedule(task, net)
            for edge in fresh.occupied_edges():
                assert set(edge) != {u, v}


class TestOrchestratedRecovery:
    @pytest.fixture
    def loaded_orchestrator(self):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        orchestrator = Orchestrator(
            net, FlexibleScheduler(), container_gflops=5_000.0
        )
        tasks = [
            make_mesh_task(net, 5, task_id=f"f-{i}") for i in range(4)
        ]
        for task in tasks:
            record = orchestrator.admit(task)
            assert record.status is TaskStatus.RUNNING
        return net, orchestrator, tasks

    def test_affected_tasks_rerouted(self, loaded_orchestrator):
        net, orchestrator, _tasks = loaded_orchestrator
        outcomes = orchestrator.handle_link_failure("RT-0", "RT-1")
        for task_id, repaired in outcomes.items():
            record = orchestrator.database.record(task_id)
            if repaired:
                assert record.status is TaskStatus.RUNNING
                # The new schedule must avoid the dead link.
                for edge in record.schedule.occupied_edges():
                    assert set(edge) != {"RT-0", "RT-1"}
            else:
                assert record.status is TaskStatus.BLOCKED

    def test_unaffected_tasks_untouched(self, loaded_orchestrator):
        net, orchestrator, tasks = loaded_orchestrator
        schedules_before = {
            t.task_id: orchestrator.database.record(t.task_id).schedule
            for t in tasks
        }
        outcomes = orchestrator.handle_link_failure("RT-0", "RT-1")
        for task in tasks:
            if task.task_id not in outcomes:
                record = orchestrator.database.record(task.task_id)
                assert record.schedule is schedules_before[task.task_id]
                assert record.reschedules == 0

    def test_no_capacity_leaks_after_failure_handling(self, loaded_orchestrator):
        net, orchestrator, tasks = loaded_orchestrator
        orchestrator.handle_link_failure("RT-0", "RT-1")
        running_bandwidth = sum(
            record.schedule.consumed_bandwidth_gbps
            for record in orchestrator.database.running()
            if record.schedule is not None
        )
        assert net.total_reserved_gbps() == pytest.approx(running_bandwidth)

    def test_restore_logged(self, loaded_orchestrator):
        net, orchestrator, _tasks = loaded_orchestrator
        orchestrator.handle_link_failure("RT-0", "RT-1")
        orchestrator.handle_link_restore("RT-0", "RT-1")
        assert not net.link("RT-0", "RT-1").failed
        assert any("restored" in msg for _t, msg in orchestrator.database.events)

    def test_restore_reopens_link_for_new_schedules(self, loaded_orchestrator):
        net, orchestrator, _tasks = loaded_orchestrator
        orchestrator.handle_link_failure("RT-0", "RT-1")
        orchestrator.handle_link_restore("RT-0", "RT-1")
        net.reserve_edge("RT-0", "RT-1", 1.0, "probe")
        assert net.link("RT-0", "RT-1").owner_gbps("RT-0", "RT-1", "probe") == 1.0

    def test_restore_leaves_survivor_schedules_alone(self, loaded_orchestrator):
        net, orchestrator, _tasks = loaded_orchestrator
        orchestrator.handle_link_failure("RT-0", "RT-1")
        before = {
            record.task.task_id: record.schedule
            for record in orchestrator.database.running()
        }
        orchestrator.handle_link_restore("RT-0", "RT-1")
        after = {
            record.task.task_id: record.schedule
            for record in orchestrator.database.running()
        }
        # Restore is pure data-plane repair: re-optimisation is the
        # rescheduling policy's job, so schedules must be untouched.
        assert before == after

    def test_failure_after_restore_repairs_again(self, loaded_orchestrator):
        net, orchestrator, _tasks = loaded_orchestrator
        orchestrator.handle_link_failure("RT-0", "RT-1")
        orchestrator.handle_link_restore("RT-0", "RT-1")
        second = orchestrator.handle_link_failure("RT-0", "RT-1")
        orchestrator.handle_link_restore("RT-0", "RT-1")
        # The second cycle must be a working failure-handling pass, not
        # a crash on stale state; survivors of round one are candidates.
        assert set(second) <= {
            record.task.task_id for record in orchestrator.database.records()
        }
        assert not net.link("RT-0", "RT-1").failed

    def test_fixed_scheduler_recovery_works_too(self):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        orchestrator = Orchestrator(net, FixedScheduler(), container_gflops=5_000.0)
        task = make_mesh_task(net, 5, task_id="fx")
        orchestrator.admit(task)
        outcomes = orchestrator.handle_link_failure("RT-0", "RT-1")
        # Whether or not the task crossed RT-0/RT-1, the handler must
        # leave a consistent state.
        record = orchestrator.database.record("fx")
        if record.status is TaskStatus.RUNNING:
            assert record.schedule is not None
        else:
            assert record.schedule is None


class TestFaultHandlersScaleWithOwners:
    """Link-scoped handlers look affected tasks up by owner.

    Their cost must follow the owners on the span, never the length of
    the task history, so a database full of finished tasks is never
    scanned.  Admission order is deliberately not sorted order.
    """

    ADMITTED = ("t-c", "t-a", "t-d", "t-b")
    BACKGROUND = "bg-flow"

    @pytest.fixture
    def orchestrator(self, monkeypatch):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        orchestrator = Orchestrator(
            net, FlexibleScheduler(), container_gflops=5_000.0
        )
        for task_id in self.ADMITTED:
            record = orchestrator.admit(make_mesh_task(net, 5, task_id=task_id))
            assert record.status is TaskStatus.RUNNING
        history = make_mesh_task(net, 5, task_id="history")
        for i in range(4_000):
            old = orchestrator.database.insert_task(
                AITask(
                    task_id=f"old-{i:04d}",
                    model=history.model,
                    global_node=history.global_node,
                    local_nodes=history.local_nodes,
                )
            )
            old.status = TaskStatus.COMPLETED if i % 4 else TaskStatus.BLOCKED
        net.reserve_edge("RT-0", "RT-1", 5.0, self.BACKGROUND)

        def no_scan(*_args, **_kwargs):
            raise AssertionError("fault handler scanned the task history")

        monkeypatch.setattr(Database, "running", no_scan)
        monkeypatch.setattr(Database, "records", no_scan)
        return orchestrator

    def test_link_failure_uses_owner_lookup(self, orchestrator):
        outcomes = orchestrator.handle_link_failure("RT-0", "RT-1")
        assert list(outcomes) == sorted(self.ADMITTED)

    def test_link_drain_uses_owner_lookup(self, orchestrator):
        outcomes = orchestrator.handle_link_drain("RT-0", "RT-1")
        assert list(outcomes) == sorted(self.ADMITTED)

    def test_link_capacity_evicts_in_sorted_owner_order(self, orchestrator):
        # 40 Gbps of tasks + 5 of background on a span cut to 25 Gbps:
        # tasks leave in sorted owner order until the rest fits.
        outcomes = orchestrator.handle_link_capacity("RT-0", "RT-1", 25.0)
        assert outcomes
        assert list(outcomes) == sorted(self.ADMITTED)[: len(outcomes)]
        link = orchestrator.network.link("RT-0", "RT-1")
        assert link.used_gbps("RT-0", "RT-1") <= 25.0 + 1e-9

    def test_background_owner_survives_failure(self, orchestrator):
        net = orchestrator.network
        outcomes = orchestrator.handle_link_failure("RT-0", "RT-1")
        assert self.BACKGROUND not in outcomes
        assert net.link("RT-0", "RT-1").owner_gbps(
            "RT-0", "RT-1", self.BACKGROUND
        ) == 5.0

    def test_background_owner_never_evicted_by_degrade(self, orchestrator):
        # Below the background flow's own rate: every task is evicted,
        # then the loop stops instead of treating the flow as a task.
        net = orchestrator.network
        outcomes = orchestrator.handle_link_capacity("RT-0", "RT-1", 1.0)
        assert list(outcomes) == sorted(self.ADMITTED)
        assert net.owners_on_link("RT-0", "RT-1") == [self.BACKGROUND]
        assert not orchestrator.database.is_running(self.BACKGROUND)

    def test_non_finite_capacity_fails_closed(self, orchestrator):
        link = orchestrator.network.link("RT-0", "RT-1")
        with pytest.raises(ConfigurationError, match="must be finite"):
            orchestrator.handle_link_capacity("RT-0", "RT-1", float("nan"))
        assert link.capacity_gbps == 100.0
        assert all(
            orchestrator.database.is_running(task_id) for task_id in self.ADMITTED
        )


def test_node_failure_scans_running_tasks_once(monkeypatch):
    net = metro_mesh(n_sites=10, servers_per_site=2)
    orchestrator = Orchestrator(net, FlexibleScheduler(), container_gflops=5_000.0)
    for task_id in ("t-b", "t-a"):
        orchestrator.admit(make_mesh_task(net, 5, task_id=task_id))
    scans = []
    running = Database.running
    monkeypatch.setattr(
        Database, "running", lambda self: scans.append(1) or running(self)
    )
    outcomes = orchestrator.handle_node_failure("RT-1")
    assert len(scans) == 1
    assert list(outcomes) == ["t-a", "t-b"]

"""Tests for the fixed SPFF baseline scheduler."""

import pytest

from repro.core.fixed import FixedScheduler
from repro.errors import SchedulingError
from repro.network.topology import dumbbell
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from tests.conftest import make_mesh_task


class TestRouting:
    def test_every_local_gets_both_routes(self, triangle_net, small_task):
        schedule = FixedScheduler().schedule(small_task, triangle_net)
        for local in small_task.local_nodes:
            broadcast = schedule.broadcast_path_of(local)
            upload = schedule.upload_path_of(local)
            assert broadcast[0] == "S-G" and broadcast[-1] == local
            assert upload[0] == local and upload[-1] == "S-G"

    def test_paths_are_shortest_by_latency(self, triangle_net, small_task):
        from tests.oracle import dijkstra

        schedule = FixedScheduler().schedule(small_task, triangle_net)
        for local in small_task.local_nodes:
            expected = dijkstra(triangle_net, "S-G", local).nodes
            assert schedule.broadcast_path_of(local) == expected

    def test_not_tree_based(self, triangle_net, small_task):
        schedule = FixedScheduler().schedule(small_task, triangle_net)
        assert not schedule.is_tree_based
        assert schedule.broadcast_tree is None


class TestReservations:
    def test_capacity_actually_reserved(self, triangle_net, small_task):
        schedule = FixedScheduler().schedule(small_task, triangle_net)
        held = triangle_net.owner_total_gbps(small_task.task_id)
        assert held == pytest.approx(schedule.consumed_bandwidth_gbps)
        assert held > 0

    def test_release_restores_network(self, triangle_net, small_task):
        scheduler = FixedScheduler()
        schedule = scheduler.schedule(small_task, triangle_net)
        scheduler.release(schedule, triangle_net)
        assert triangle_net.total_reserved_gbps() == 0.0

    def test_full_demand_when_uncontended(self, triangle_net, small_task):
        schedule = FixedScheduler().schedule(small_task, triangle_net)
        for local in small_task.local_nodes:
            assert schedule.broadcast_flow_rates[local] == pytest.approx(10.0)
            assert schedule.upload_flow_rates[local] == pytest.approx(10.0)

    def test_bandwidth_scales_with_path_lengths(self, triangle_net, small_task):
        schedule = FixedScheduler().schedule(small_task, triangle_net)
        expected = 0.0
        for local in small_task.local_nodes:
            expected += (len(schedule.broadcast_path_of(local)) - 1) * 10.0
            expected += (len(schedule.upload_path_of(local)) - 1) * 10.0
        assert schedule.consumed_bandwidth_gbps == pytest.approx(expected)


class TestContention:
    def test_flows_share_bottleneck_equally(self):
        # Both locals sit across a 15 Gbps bottleneck; each of the two
        # broadcast flows should get demand capped by an equal share.
        net = dumbbell(bottleneck_gbps=16.0)
        task = AITask(
            task_id="contended",
            model=get_model("resnet18"),
            global_node="SRV-L-0",
            local_nodes=("SRV-R-0", "SRV-R-1"),
            demand_gbps=10.0,
        )
        schedule = FixedScheduler().schedule(task, net)
        for local in task.local_nodes:
            assert schedule.broadcast_flow_rates[local] == pytest.approx(8.0)

    def test_asymmetric_directions_independent(self):
        net = dumbbell(bottleneck_gbps=16.0)
        net.reserve_edge("RT-L", "RT-R", 10.0, "bg")  # broadcast direction loaded
        task = AITask(
            task_id="asym",
            model=get_model("resnet18"),
            global_node="SRV-L-0",
            local_nodes=("SRV-R-0",),
            demand_gbps=10.0,
        )
        schedule = FixedScheduler().schedule(task, net)
        assert schedule.broadcast_flow_rates["SRV-R-0"] == pytest.approx(6.0)
        assert schedule.upload_flow_rates["SRV-R-0"] == pytest.approx(10.0)

    def test_blocked_when_no_capacity(self):
        net = dumbbell(bottleneck_gbps=10.0)
        net.reserve_edge("RT-L", "RT-R", 10.0, "bg")
        task = AITask(
            task_id="blocked",
            model=get_model("resnet18"),
            global_node="SRV-L-0",
            local_nodes=("SRV-R-0",),
            demand_gbps=10.0,
        )
        with pytest.raises(SchedulingError):
            FixedScheduler().schedule(task, net)

    def test_blocked_schedule_leaves_no_leaks(self):
        net = dumbbell(bottleneck_gbps=10.0)
        net.reserve_edge("RT-L", "RT-R", 10.0, "bg")
        task = AITask(
            task_id="blocked",
            model=get_model("resnet18"),
            global_node="SRV-L-0",
            local_nodes=("SRV-R-0",),
            demand_gbps=10.0,
        )
        with pytest.raises(SchedulingError):
            FixedScheduler().schedule(task, net)
        assert net.owner_total_gbps("blocked") == 0.0


class TestOnMesh:
    def test_bandwidth_roughly_linear_in_locals(self, mesh_net):
        scheduler = FixedScheduler()
        consumed = []
        for k in (2, 4, 8):
            net = mesh_net.copy_topology()
            task = make_mesh_task(net, k, task_id=f"lin-{k}")
            schedule = scheduler.schedule(task, net)
            consumed.append(schedule.consumed_bandwidth_gbps)
        assert consumed[1] > consumed[0]
        assert consumed[2] > consumed[1] * 1.5

    def test_invalid_min_rate_rejected(self):
        with pytest.raises(SchedulingError):
            FixedScheduler(min_rate_gbps=0.0)

"""Tests for the TaskSchedule result object itself."""

import pytest

from repro.core.base import MIN_RATE_GBPS, TaskSchedule
from repro.core.baselines import ChainScheduler, KspLoadBalancedScheduler
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import SchedulingError

from tests.conftest import make_mesh_task


class TestPathAccessors:
    def test_fixed_paths_round_trip(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FixedScheduler().schedule(task, mesh_net)
        for local in task.local_nodes:
            assert schedule.broadcast_path_of(local) == schedule.broadcast_routes[local]
            assert schedule.upload_path_of(local) == schedule.upload_routes[local]

    def test_tree_paths_derive_from_trees(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        for local in task.local_nodes:
            down = schedule.broadcast_path_of(local)
            up = schedule.upload_path_of(local)
            assert down[0] == task.global_node and down[-1] == local
            assert up[0] == local and up[-1] == task.global_node

    def test_unknown_local_raises(self, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        schedule = FixedScheduler().schedule(task, mesh_net)
        with pytest.raises(SchedulingError):
            schedule.broadcast_path_of("ghost")
        with pytest.raises(SchedulingError):
            schedule.upload_path_of("ghost")


class TestAggregates:
    def test_consumed_bandwidth_sums_both_procedures(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        assert schedule.consumed_bandwidth_gbps == pytest.approx(
            sum(schedule.broadcast_edge_rates.values())
            + sum(schedule.upload_edge_rates.values())
        )

    def test_occupied_edges_merges_directions(self, mesh_net):
        task = make_mesh_task(mesh_net, 4)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        merged = schedule.occupied_edges()
        assert sum(merged.values()) == pytest.approx(
            schedule.consumed_bandwidth_gbps
        )
        for edge in schedule.broadcast_edge_rates:
            assert edge in merged

    def test_owner_is_task_id(self, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        schedule = FixedScheduler().schedule(task, mesh_net)
        assert schedule.owner == task.task_id

    def test_is_tree_based_flag(self, mesh_net):
        task = make_mesh_task(mesh_net, 3)
        fixed = FixedScheduler().schedule(task, mesh_net.copy_topology())
        flexible = FlexibleScheduler().schedule(task, mesh_net.copy_topology())
        assert not fixed.is_tree_based
        assert flexible.is_tree_based


class TestTreeSchedulePlan:
    @pytest.mark.parametrize("scheduler", [FlexibleScheduler, ChainScheduler])
    def test_upload_tree_reads_through_the_plan(self, mesh_net, scheduler):
        task = make_mesh_task(mesh_net, 4)
        schedule = scheduler().schedule(task, mesh_net)
        assert schedule.upload_tree is schedule.upload_plan.tree
        assert set(schedule.upload_plan.edge_payloads) == set(
            schedule.upload_tree.parent
        )

    def test_path_schedule_has_no_plan(self, mesh_net):
        schedule = FixedScheduler().schedule(make_mesh_task(mesh_net, 3), mesh_net)
        assert schedule.upload_plan is None
        assert schedule.upload_tree is None


_SCHEDULERS = [
    FixedScheduler,
    FlexibleScheduler,
    KspLoadBalancedScheduler,
    ChainScheduler,
]


class TestMinRateFloor:
    """A demand under the admission floor blocks on every scheduler."""

    @pytest.mark.parametrize("scheduler", _SCHEDULERS)
    @pytest.mark.parametrize("demand", [1e-10, 1e-9, MIN_RATE_GBPS / 2])
    def test_demand_below_floor_blocks(self, mesh_net, scheduler, demand):
        task = make_mesh_task(mesh_net, 4, demand_gbps=demand)
        with pytest.raises(SchedulingError):
            scheduler().schedule(task, mesh_net)
        assert mesh_net.total_reserved_gbps() == 0.0

    @pytest.mark.parametrize("scheduler", _SCHEDULERS)
    def test_demand_at_floor_is_admitted(self, mesh_net, scheduler):
        task = make_mesh_task(mesh_net, 4, demand_gbps=MIN_RATE_GBPS)
        schedule = scheduler().schedule(task, mesh_net)
        assert min(schedule.occupied_edges().values()) >= MIN_RATE_GBPS

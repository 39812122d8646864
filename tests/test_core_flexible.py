"""Tests for the flexible MST scheduler."""

import pytest

from repro.core.base import MIN_RATE_GBPS
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler, reserve_trees
from repro.errors import SchedulingError
from repro.network.auxiliary import AuxiliaryWeights
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.paths import TreeResult
from repro.network.topology import dumbbell
from repro.tasks.aggregation import UploadAggregationPlan
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from tests.conftest import make_mesh_task


class TestTrees:
    def test_schedule_is_tree_based(self, triangle_net, small_task):
        schedule = FlexibleScheduler().schedule(small_task, triangle_net)
        assert schedule.is_tree_based
        assert schedule.broadcast_tree is not None
        assert schedule.upload_tree is not None

    def test_trees_rooted_at_global(self, triangle_net, small_task):
        schedule = FlexibleScheduler().schedule(small_task, triangle_net)
        assert schedule.broadcast_tree.root == "S-G"
        assert schedule.upload_tree.root == "S-G"

    def test_trees_span_all_locals(self, mesh_net):
        task = make_mesh_task(mesh_net, 6)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        for local in task.local_nodes:
            assert schedule.broadcast_path_of(local)[0] == task.global_node
            assert schedule.upload_path_of(local)[-1] == task.global_node

    def test_paths_use_physical_links(self, mesh_net):
        task = make_mesh_task(mesh_net, 6)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        for local in task.local_nodes:
            path = schedule.broadcast_path_of(local)
            for a, b in zip(path, path[1:]):
                assert mesh_net.has_link(a, b)


class TestBandwidthSaving:
    def test_beats_fixed_on_shared_trunks(self, mesh_net):
        task = make_mesh_task(mesh_net, 8)
        flexible_net = mesh_net.copy_topology()
        fixed_net = mesh_net.copy_topology()
        flexible = FlexibleScheduler().schedule(task, flexible_net)
        fixed = FixedScheduler().schedule(task, fixed_net)
        assert flexible.consumed_bandwidth_gbps < fixed.consumed_bandwidth_gbps

    def test_bandwidth_sublinear_in_locals(self, mesh_net):
        scheduler = FlexibleScheduler()
        consumed = []
        for k in (2, 8):
            net = mesh_net.copy_topology()
            task = make_mesh_task(net, k, task_id=f"sub-{k}")
            consumed.append(scheduler.schedule(task, net).consumed_bandwidth_gbps)
        # Quadrupling locals must far less than quadruple the bandwidth.
        assert consumed[1] < consumed[0] * 4

    def test_reservations_match_schedule(self, mesh_net):
        task = make_mesh_task(mesh_net, 5)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        assert mesh_net.owner_total_gbps(task.task_id) == pytest.approx(
            schedule.consumed_bandwidth_gbps
        )

    def test_release_restores_network(self, mesh_net):
        scheduler = FlexibleScheduler()
        task = make_mesh_task(mesh_net, 5)
        schedule = scheduler.schedule(task, mesh_net)
        scheduler.release(schedule, mesh_net)
        assert mesh_net.total_reserved_gbps() == 0.0


class TestMultiplicityReservation:
    def test_upload_edges_scale_with_payloads(self, mesh_net):
        task = make_mesh_task(mesh_net, 6)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        plan = schedule.upload_plan
        # The schedule carries the plan its reservation was sized by.
        assert plan == UploadAggregationPlan.build(
            mesh_net, schedule.upload_tree, task.local_nodes
        )
        for child, parent in schedule.upload_tree.edges:
            payloads = plan.edge_payloads[child]
            rate = schedule.upload_edge_rates[(child, parent)]
            assert rate == pytest.approx(
                min(payloads * task.demand_gbps, rate), rel=1e-6
            )
            assert rate <= payloads * task.demand_gbps + 1e-9

    def test_broadcast_edges_carry_single_demand(self, mesh_net):
        task = make_mesh_task(mesh_net, 6)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        for rate in schedule.broadcast_edge_rates.values():
            assert rate <= task.demand_gbps + 1e-9


class TestCongestionAvoidance:
    def test_detours_around_loaded_edge(self, square_net):
        # Make A the root and C the only terminal; load A->C so the
        # auxiliary graph pushes the tree through B.
        square_net.add_node("SA", aggregation_capable=True)
        square_net.add_node("SC", aggregation_capable=True)
        square_net.add_link("SA", "A", 100.0, distance_km=0.1)
        square_net.add_link("SC", "C", 100.0, distance_km=0.1)
        square_net.reserve_edge("A", "C", 95.0, "bg")
        task = AITask(
            task_id="detour",
            model=get_model("resnet18"),
            global_node="SA",
            local_nodes=("SC",),
            demand_gbps=10.0,
        )
        schedule = FlexibleScheduler().schedule(task, square_net)
        path = schedule.broadcast_path_of("SC")
        assert ("A", "C") not in list(zip(path, path[1:]))

    def test_blocked_when_cut_saturated(self):
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
            FlexibleScheduler().schedule(task, net)
        assert net.owner_total_gbps("blocked") == 0.0


class TestWeights:
    def test_custom_weights_accepted(self, mesh_net):
        weights = AuxiliaryWeights(alpha_bandwidth=5.0, beta_latency=0.1)
        scheduler = FlexibleScheduler(weights=weights)
        assert scheduler.weights is weights
        task = make_mesh_task(mesh_net, 4)
        scheduler.schedule(task, mesh_net)  # completes

    def test_latency_only_weights_give_shortest_paths(self, mesh_net):
        from tests.oracle import dijkstra

        weights = AuxiliaryWeights(
            alpha_bandwidth=0.0, beta_latency=1.0, gamma_congestion=0.0
        )
        net = mesh_net.copy_topology()
        task = make_mesh_task(net, 1, task_id="single")
        schedule = FlexibleScheduler(weights=weights).schedule(task, net)
        local = task.local_nodes[0]
        expected = dijkstra(mesh_net, task.global_node, local).nodes
        assert schedule.broadcast_path_of(local) == expected

    def test_invalid_min_rate_rejected(self):
        with pytest.raises(SchedulingError):
            FlexibleScheduler(min_rate_gbps=-1.0)


class TestAggregationPlacement:
    def test_aggregation_at_intermediate_routers(self, mesh_net):
        # With several locals the upload tree should merge before the root.
        task = make_mesh_task(mesh_net, 8)
        schedule = FlexibleScheduler().schedule(task, mesh_net)
        intermediate = [
            node
            for node in schedule.upload_plan.aggregation_nodes
            if node != task.global_node
        ]
        assert intermediate, "expected in-network aggregation below the root"


class TestSourcelessSpur:
    """A tree branch with no source below it carries no upload payload."""

    @staticmethod
    def _spur(demand_gbps):
        net = Network("spur")
        for name in ("g", "r", "l"):
            net.add_node(name, NodeKind.SERVER)
        net.add_node("x", NodeKind.ROUTER)
        for a, b in (("g", "r"), ("r", "l"), ("r", "x")):
            net.add_link(a, b, 100.0)
        tree = TreeResult(root="g", parent={"r": "g", "l": "r", "x": "r"}, weight=0.0)
        task = AITask(
            task_id="t",
            model=get_model("resnet18"),
            global_node="g",
            local_nodes=("l",),
            demand_gbps=demand_gbps,
        )
        return net, tree, task

    def test_spur_reserves_nothing_upward_and_admits(self):
        net, tree, task = self._spur(10.0)
        schedule = reserve_trees(
            "flexible-mst", task, net, MIN_RATE_GBPS, tree, lambda: tree
        )
        assert schedule.upload_plan.edge_payloads["x"] == 0
        assert schedule.upload_edge_rates[("x", "r")] == 0.0
        assert net.link("x", "r").owner_gbps("x", "r", "t") == 0.0
        assert schedule.broadcast_edge_rates[("r", "x")] == 10.0

    def test_demand_below_floor_blocks_despite_spur(self):
        net, tree, task = self._spur(1e-10)
        with pytest.raises(SchedulingError, match="tree edge"):
            reserve_trees("chain", task, net, MIN_RATE_GBPS, tree, lambda: tree)
        assert net.total_reserved_gbps() == 0.0

"""Tests for the stronger baselines (ksp-lb, chain)."""

import pytest

from repro.core.baselines import ChainScheduler, KspLoadBalancedScheduler
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import SchedulingError
from repro.network.topology import dumbbell
from repro.tasks.aggregation import UploadAggregationPlan
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from tests.conftest import make_mesh_task


class TestKspLoadBalanced:
    def test_routes_and_rates_for_every_local(self, mesh_net):
        task = make_mesh_task(mesh_net, 5)
        schedule = KspLoadBalancedScheduler().schedule(task, mesh_net)
        for local in task.local_nodes:
            assert schedule.broadcast_path_of(local)[-1] == local
            assert schedule.upload_path_of(local)[0] == local
            assert schedule.broadcast_flow_rates[local] > 0

    def test_reservations_match_schedule(self, mesh_net):
        task = make_mesh_task(mesh_net, 5)
        schedule = KspLoadBalancedScheduler().schedule(task, mesh_net)
        assert mesh_net.owner_total_gbps(task.task_id) == pytest.approx(
            schedule.consumed_bandwidth_gbps
        )

    def test_avoids_loaded_shortest_path(self, square_net):
        # Root A, terminal C: direct A-C is shortest but nearly full;
        # k=2 load balancing must take the detour through B.
        square_net.add_node("SA", aggregation_capable=True)
        square_net.add_node("SC", aggregation_capable=True)
        square_net.add_link("SA", "A", 100.0, distance_km=0.1)
        square_net.add_link("SC", "C", 100.0, distance_km=0.1)
        square_net.reserve_edge("A", "C", 95.0, "bg")
        square_net.reserve_edge("C", "A", 95.0, "bg")
        task = AITask(
            task_id="ksp",
            model=get_model("resnet18"),
            global_node="SA",
            local_nodes=("SC",),
            demand_gbps=10.0,
        )
        schedule = KspLoadBalancedScheduler(k=3).schedule(task, square_net)
        path = schedule.broadcast_path_of("SC")
        assert ("A", "C") not in list(zip(path, path[1:]))

    def test_many_locals_share_access_link_fairly(self, mesh_net):
        # The global's single access link cannot be avoided; rates must
        # degrade gracefully (equal share), never block outright.
        task = make_mesh_task(mesh_net, 15, demand_gbps=20.0)
        schedule = KspLoadBalancedScheduler().schedule(task, mesh_net)
        rates = list(schedule.broadcast_flow_rates.values())
        assert all(rate > 0 for rate in rates)
        assert sum(rates) <= 100.0 + 1e-6  # access link capacity

    def test_blocked_cut_raises_cleanly(self):
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
            KspLoadBalancedScheduler().schedule(task, net)
        assert net.owner_total_gbps("blocked") == 0.0

    def test_invalid_k_rejected(self):
        with pytest.raises(SchedulingError):
            KspLoadBalancedScheduler(k=0)


class TestChainScheduler:
    def test_tree_is_a_chain_through_all_locals(self, mesh_net):
        task = make_mesh_task(mesh_net, 5)
        schedule = ChainScheduler().schedule(task, mesh_net)
        assert schedule.is_tree_based
        for local in task.local_nodes:
            assert schedule.upload_path_of(local)[-1] == task.global_node

    def test_single_payload_per_edge(self, mesh_net):
        # Every terminal on the chain aggregates, so no edge ever carries
        # more than one payload.
        task = make_mesh_task(mesh_net, 6)
        schedule = ChainScheduler().schedule(task, mesh_net)
        plan = schedule.upload_plan
        assert plan == UploadAggregationPlan.build(
            mesh_net, schedule.upload_tree, task.local_nodes
        )
        for child, _parent in schedule.upload_tree.edges:
            assert plan.edge_payloads[child] == 1

    def test_bandwidth_beats_fixed(self, mesh_net):
        task = make_mesh_task(mesh_net, 8)
        chain_net = mesh_net.copy_topology()
        fixed_net = mesh_net.copy_topology()
        chain = ChainScheduler().schedule(task, chain_net)
        fixed = FixedScheduler().schedule(task, fixed_net)
        assert chain.consumed_bandwidth_gbps < fixed.consumed_bandwidth_gbps

    def test_release_restores_network(self, mesh_net):
        scheduler = ChainScheduler()
        task = make_mesh_task(mesh_net, 5)
        schedule = scheduler.schedule(task, mesh_net)
        scheduler.release(schedule, mesh_net)
        assert mesh_net.total_reserved_gbps() == 0.0

    def test_deterministic(self, mesh_net):
        task = make_mesh_task(mesh_net, 5)
        a = ChainScheduler().schedule(task, mesh_net.copy_topology())
        b = ChainScheduler().schedule(task, mesh_net.copy_topology())
        assert a.upload_tree.parent == b.upload_tree.parent

    def test_chain_collapses_to_tree_on_shared_infrastructure(self):
        """Physical sharing merges chain segments into a tree.

        On a spine-leaf fabric every inter-terminal segment rides the
        same spine, so the daisy chain degenerates into a shallow tree —
        the physically honest outcome (the spine cannot be traversed
        twice by the same distribution structure).
        """
        from repro.network.topology import spine_leaf

        fabric = spine_leaf(n_spines=4, n_leaves=12, servers_per_leaf=1)
        task = make_mesh_task(fabric, 8, task_id="collapse")
        schedule = ChainScheduler().schedule(task, fabric)
        depths = [
            schedule.upload_tree.depth(local) for local in task.local_nodes
        ]
        # A true 8-terminal chain would be 8 * 2 hops deep; sharing keeps
        # every terminal within a couple of physical hops of the root.
        assert max(depths) < 8

    def test_chain_latency_monotone_in_locals(self, mesh_net):
        """More locals never make the chain faster (serial aggregation)."""
        from repro.core.evaluation import ScheduleEvaluator

        def round_ms(k):
            net = mesh_net.copy_topology()
            task = make_mesh_task(net, k, task_id=f"c-{k}")
            schedule = ChainScheduler().schedule(task, net)
            return ScheduleEvaluator(net).round_latency(schedule).total_ms

        values = [round_ms(k) for k in (2, 5, 8)]
        assert values == sorted(values)

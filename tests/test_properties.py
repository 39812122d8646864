"""Property-based tests (hypothesis) on core invariants.

Covered invariants:

* shortest paths are optimal (checked against brute-force enumeration
  on small random graphs) and valid physical paths;
* terminal trees are acyclic, connect every terminal, and never beat the
  optimal Steiner weight by being invalid;
* Yen's first paths are the brute-force cheapest simple paths;
* link reservations conserve capacity and release exactly;
* aggregation plans conserve contributions (merges + delivered == sources);
* the flexible scheduler never consumes more bandwidth than the fixed
  scheduler on the same uncontended instance;
* timeslot tables never double-book a slot.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import CapacityError
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import LatencyWeightSpec, get_cache
from repro.optical.timeslot import TimeslotTable
from repro.tasks.aggregation import UploadAggregationPlan
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model


# ----------------------------------------------------------------------
# Random connected graph strategy
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, min_nodes=3, max_nodes=7):
    """A small connected Network with random extra edges and distances."""
    n = draw(st.integers(min_nodes, max_nodes))
    net = Network("random")
    for i in range(n):
        net.add_node(f"n{i}", NodeKind.ROUTER)
    # Random spanning chain guarantees connectivity.
    order = draw(st.permutations(list(range(n))))
    distances = st.floats(1.0, 100.0, allow_nan=False)
    for a, b in zip(order, order[1:]):
        net.add_link(f"n{a}", f"n{b}", 100.0, distance_km=draw(distances))
    # Random extra edges.
    candidates = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if not net.has_link(f"n{a}", f"n{b}")
    ]
    extra = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=6)) if candidates else []
    for a, b in extra:
        net.add_link(f"n{a}", f"n{b}", 100.0, distance_km=draw(distances))
    return net


def all_simple_paths(net: Network, source: str, destination: str):
    """Brute-force enumeration of simple paths (tiny graphs only)."""
    stack = [(source, [source])]
    while stack:
        current, path = stack.pop()
        if current == destination:
            yield path
            continue
        for neighbor in net.neighbors(current):
            if neighbor not in path:
                stack.append((neighbor, path + [neighbor]))


def path_weight(net: Network, path):
    return sum(net.edge_latency_ms(a, b) for a, b in zip(path, path[1:]))


def shortest(net: Network, source: str, destination: str):
    return get_cache(net).shortest_path(
        source, destination, LatencyWeightSpec(net)
    )


def terminal_tree(net: Network, root: str, terminals):
    return get_cache(net).terminal_tree(root, terminals, LatencyWeightSpec(net))


class TestDijkstraProperties:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_dijkstra_is_optimal(self, net):
        names = net.node_names()
        source, destination = names[0], names[-1]
        result = shortest(net, source, destination)
        best = min(
            path_weight(net, p) for p in all_simple_paths(net, source, destination)
        )
        assert result.weight == pytest.approx(best)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_dijkstra_path_is_physical_and_simple(self, net):
        names = net.node_names()
        result = shortest(net, names[0], names[-1])
        assert len(set(result.nodes)) == len(result.nodes)
        for a, b in zip(result.nodes, result.nodes[1:]):
            assert net.has_link(a, b)


class TestTerminalTreeProperties:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_nodes=4), st.data())
    def test_terminal_tree_connects_terminals(self, net, data):
        names = net.node_names()
        root = names[0]
        terminals = data.draw(
            st.lists(st.sampled_from(names[1:]), min_size=1, unique=True)
        )
        tree = terminal_tree(net, root, terminals)
        for terminal in terminals:
            path = tree.path_to_root(terminal)
            assert path[-1] == root
            for a, b in zip(path, path[1:]):
                assert net.has_link(a, b)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_nodes=4), st.data())
    def test_terminal_tree_no_worse_than_star_of_paths(self, net, data):
        """The tree's edge set never exceeds summed shortest paths."""
        names = net.node_names()
        root = names[0]
        terminals = data.draw(
            st.lists(st.sampled_from(names[1:]), min_size=1, unique=True)
        )
        tree = terminal_tree(net, root, terminals)
        star = sum(shortest(net, root, t).weight for t in terminals)
        assert tree.weight <= star + 1e-9


class TestKShortestProperties:
    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(min_nodes=4, max_nodes=6))
    def test_yen_enumerates_cheapest_simple_paths(self, net):
        """Yen's first three paths equal the brute-force three cheapest."""
        names = net.node_names()
        source, destination = names[0], names[-1]
        enumerated = sorted(
            path_weight(net, p)
            for p in all_simple_paths(net, source, destination)
        )
        found = get_cache(net).k_shortest_paths(
            source, destination, 3, LatencyWeightSpec(net)
        )
        for expected, result in zip(enumerated[:3], found):
            assert result.weight == pytest.approx(expected)


class TestReservationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["t1", "t2", "t3"]), st.floats(0.1, 40.0)),
            max_size=10,
        )
    )
    def test_capacity_never_exceeded_and_release_exact(self, operations):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 100.0)
        link = net.link("a", "b")
        expected = {}
        for owner, rate in operations:
            try:
                link.reserve("a", "b", rate, owner)
            except CapacityError:
                continue
            expected[owner] = expected.get(owner, 0.0) + rate
        assert link.used_gbps("a", "b") <= 100.0 + 1e-9
        for owner, total in expected.items():
            assert link.release("a", "b", owner) == pytest.approx(total)
        assert link.used_gbps("a", "b") == pytest.approx(0.0)


class TestAggregationConservation:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_nodes=4), st.data())
    def test_merges_plus_delivered_equals_sources(self, net, data):
        names = net.node_names()
        root = names[0]
        sources = data.draw(
            st.lists(st.sampled_from(names[1:]), min_size=1, unique=True)
        )
        tree = terminal_tree(net, root, sources)
        plan = UploadAggregationPlan.build(net, tree, sources)
        into_root = sum(
            plan.edge_payloads[child] for child in tree.children().get(root, [])
        )
        delivered = into_root - plan.merges[root]
        assert sum(plan.merges.values()) + delivered == len(sources)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_nodes=4), st.data())
    def test_edge_payloads_positive_within_tree(self, net, data):
        names = net.node_names()
        root = names[0]
        sources = data.draw(
            st.lists(st.sampled_from(names[1:]), min_size=1, unique=True)
        )
        tree = terminal_tree(net, root, sources)
        plan = UploadAggregationPlan.build(net, tree, sources)
        assert set(plan.edge_payloads) == set(tree.parent)
        for child, _parent in tree.edges:
            assert plan.edge_payloads[child] >= 1


class TestSchedulerDominance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_flexible_never_consumes_more_bandwidth(self, n_locals, seed):
        from repro.network.topology import metro_mesh
        from repro.sim.rng import RandomStreams

        net_fixed = metro_mesh(n_sites=8, servers_per_site=2)
        net_flex = metro_mesh(n_sites=8, servers_per_site=2)
        rng = RandomStreams(seed).stream("placement")
        servers = net_fixed.servers()
        chosen = rng.sample(servers, n_locals + 1)
        task = AITask(
            task_id="prop",
            model=get_model("resnet18"),
            global_node=chosen[0],
            local_nodes=tuple(chosen[1:]),
            demand_gbps=5.0,
        )
        fixed = FixedScheduler().schedule(task, net_fixed)
        flexible = FlexibleScheduler().schedule(task, net_flex)
        assert (
            flexible.consumed_bandwidth_gbps
            <= fixed.consumed_bandwidth_gbps + 1e-6
        )


class TestExecutorAgreement:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_executed_matches_analytic_within_tolerance(self, n_locals, seed):
        """The analytic evaluator and the event-driven executor are two
        independent implementations of one semantics: they must agree."""
        from repro.core.evaluation import ScheduleEvaluator
        from repro.core.flexible import FlexibleScheduler
        from repro.core.simulation import RoundExecutor
        from repro.network.topology import metro_mesh
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        net = metro_mesh(n_sites=10, servers_per_site=2)
        rng = RandomStreams(seed).stream("placement")
        chosen = rng.sample(net.servers(), n_locals + 1)
        task = AITask(
            task_id="agree",
            model=get_model("resnet18"),
            global_node=chosen[0],
            local_nodes=tuple(chosen[1:]),
            demand_gbps=8.0,
        )
        schedule = FlexibleScheduler().schedule(task, net)
        analytic = ScheduleEvaluator(net).round_latency(schedule).total_ms
        executed = RoundExecutor(net, schedule).execute_round(Simulator()).total_ms
        assert executed == pytest.approx(analytic, rel=0.15)


class TestTimeslotProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(1.0, 60.0)),
            max_size=8,
        )
    )
    def test_no_slot_double_booking(self, requests):
        table = TimeslotTable(n_slots=10, channel_gbps=100.0)
        granted = {}
        for owner, rate in requests:
            try:
                slots = table.allocate(owner, rate)
            except CapacityError:
                continue
            for slot in slots:
                # A slot granted twice without release is a double-booking.
                assert slot not in granted or granted[slot] == owner
                granted[slot] = owner
        assert table.utilisation <= 1.0

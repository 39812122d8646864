"""Tests for the exact Steiner tree DP and the MST approximation bound.

Both sides route on the production kernel: the DP reads shortest-path
costs from the network's path cache, and the heuristic is the cache's
terminal tree.  One test replays the DP on the reference oracle
(``tests/oracle.py``) and requires the same cost bit for bit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, NoPathError, TopologyError
from repro.network.graph import Network
from repro.network.routing import HopWeightSpec, LatencyWeightSpec, get_cache
from repro.network.steiner import steiner_tree_cost
from repro.network.topology import metro_mesh
from repro.sim.rng import RandomStreams
from tests.oracle import object_oracle


def terminal_tree(net, terminals):
    return get_cache(net).terminal_tree(
        terminals[0], terminals[1:], LatencyWeightSpec(net)
    )


class TestExactInstances:
    def test_two_terminals_is_shortest_path(self, square_net):
        cost = steiner_tree_cost(square_net, ["A", "D"])
        # A->C->D: 5 km + 10 km at 0.005 ms/km.
        assert cost == pytest.approx((5 + 10) * 0.005)

    def test_single_terminal_is_free(self, square_net):
        assert steiner_tree_cost(square_net, ["A"]) == 0.0
        assert steiner_tree_cost(square_net, ["A", "A"]) == 0.0

    def test_star_with_steiner_point(self):
        """Three terminals around a hub: the optimum uses the hub (a
        non-terminal Steiner point), beating any terminal-only spanning."""
        net = Network()
        net.add_node("hub")
        for name in ("a", "b", "c"):
            net.add_node(name)
            net.add_link(name, "hub", 10.0, distance_km=10.0)
        # Direct terminal-terminal links are expensive.
        net.add_link("a", "b", 10.0, distance_km=35.0)
        net.add_link("b", "c", 10.0, distance_km=35.0)
        cost = steiner_tree_cost(net, ["a", "b", "c"])
        assert cost == pytest.approx(3 * 10.0 * 0.005)  # three spokes

    def test_square_all_corners(self, square_net):
        # Cheapest tree spanning A,B,C,D: A-C (5) + A-B (10) + C-D (10).
        cost = steiner_tree_cost(square_net, ["A", "B", "C", "D"])
        assert cost == pytest.approx((5 + 10 + 10) * 0.005)

    def test_hop_weight_counts_edges(self, line_net):
        cost = steiner_tree_cost(
            line_net, ["S1", "S2", "S3"], HopWeightSpec(line_net)
        )
        assert cost == 4.0  # S1-R1-R2 trunk + two server drops


class TestGuards:
    def test_unreachable_terminal_raises(self, square_net):
        square_net.add_node("island")
        with pytest.raises(NoPathError):
            steiner_tree_cost(square_net, ["A", "island", "B"])

    def test_too_many_terminals_rejected(self, mesh_net):
        servers = mesh_net.servers()
        with pytest.raises(ConfigurationError):
            steiner_tree_cost(mesh_net, servers[:13])

    def test_unknown_terminal_rejected(self, square_net):
        with pytest.raises(TopologyError):
            steiner_tree_cost(square_net, ["A", "ghost"])


class TestApproximationBound:
    def test_mst_heuristic_never_beats_optimum(self, mesh_net):
        servers = mesh_net.servers()
        terminals = servers[:6]
        optimum = steiner_tree_cost(
            mesh_net, terminals, LatencyWeightSpec(mesh_net)
        )
        tree = terminal_tree(mesh_net, terminals)
        assert tree.weight >= optimum - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 6))
    def test_textbook_two_approximation_bound(self, seed, k):
        """The terminal tree is the metric-closure MST heuristic,
        guaranteed within 2(1 - 1/k) of the optimal Steiner tree."""
        net = metro_mesh(n_sites=8, servers_per_site=2)
        rng = RandomStreams(seed).stream("steiner")
        terminals = rng.sample(net.servers(), k)
        optimum = steiner_tree_cost(net, terminals, LatencyWeightSpec(net))
        tree = terminal_tree(net, terminals)
        bound = 2.0 * (1.0 - 1.0 / k) * optimum
        assert optimum - 1e-9 <= tree.weight <= bound + 1e-9


class TestOracleAgreement:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cost_equals_object_oracle(self, k):
        """The DP on cached CSR trees equals the DP on object Dijkstra."""
        net = metro_mesh(n_sites=6, servers_per_site=2)
        rng = RandomStreams(k).stream("steiner")
        for _ in range(3):
            terminals = rng.sample(net.servers(), k)
            for spec in (LatencyWeightSpec(net), HopWeightSpec(net)):
                production = steiner_tree_cost(net, terminals, spec)
                with object_oracle():
                    reference = steiner_tree_cost(net, terminals, spec)
                assert production == reference

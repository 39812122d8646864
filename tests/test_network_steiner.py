"""Tests for the exact Steiner tree DP and the MST approximation bound."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, NoPathError
from repro.network.graph import Network
from repro.network.paths import dijkstra, hop_weight, latency_weight, terminal_tree
from repro.network.steiner import steiner_tree_cost
from repro.network.topology import metro_mesh


class TestExactInstances:
    def test_two_terminals_is_shortest_path(self, square_net):
        cost = steiner_tree_cost(square_net, ["A", "D"])
        assert cost == pytest.approx(dijkstra(square_net, "A", "D").weight)

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
            line_net, ["S1", "S2", "S3"], hop_weight(line_net)
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
        with pytest.raises(Exception):
            steiner_tree_cost(square_net, ["A", "ghost"])


class TestApproximationBound:
    def test_mst_heuristic_never_beats_optimum(self, mesh_net):
        servers = mesh_net.servers()
        terminals = servers[:6]
        optimum = steiner_tree_cost(
            mesh_net, terminals, latency_weight(mesh_net)
        )
        tree = terminal_tree(mesh_net, terminals[0], terminals[1:])
        assert tree.weight >= optimum - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 6))
    def test_textbook_two_approximation_bound(self, seed, k):
        """terminal_tree is the metric-closure MST heuristic, guaranteed
        within 2(1 - 1/k) of the optimal Steiner tree."""
        from repro.sim.rng import RandomStreams

        net = metro_mesh(n_sites=8, servers_per_site=2)
        rng = RandomStreams(seed).stream("steiner")
        terminals = rng.sample(net.servers(), k)
        weight = latency_weight(net)
        optimum = steiner_tree_cost(net, terminals, weight)
        tree = terminal_tree(net, terminals[0], terminals[1:], weight)
        bound = 2.0 * (1.0 - 1.0 / k) * optimum
        assert optimum - 1e-9 <= tree.weight <= bound + 1e-9

"""Tests for shortest paths, Yen, terminal trees, and path helpers.

Hand-computed answers are checked on the production entry points (the
network's path cache over the CSR kernel).  Only the custom scalar
weights no spec can express (infinite, negative) run on the reference
oracle in ``tests/oracle.py``.
"""

import math

import pytest

from repro.errors import NoPathError, TopologyError
from repro.network import csr
from repro.network.graph import Network
from repro.network.paths import path_latency_ms
from repro.network.routing import HopWeightSpec, LatencyWeightSpec, get_cache
from repro.network.topology import nsfnet
from tests import oracle


def shortest(net, source, destination, spec=None):
    spec = LatencyWeightSpec(net) if spec is None else spec
    return get_cache(net).shortest_path(source, destination, spec)


def k_shortest(net, source, destination, k):
    return get_cache(net).k_shortest_paths(
        source, destination, k, LatencyWeightSpec(net)
    )


def terminal_tree(net, root, terminals):
    return get_cache(net).terminal_tree(root, terminals, LatencyWeightSpec(net))


class TestDijkstra:
    def test_prefers_lower_latency(self, square_net):
        # A->C direct (5 km) beats A->B->C (20 km).
        result = shortest(square_net, "A", "C")
        assert result.nodes == ("A", "C")

    def test_multi_hop_when_cheaper(self, square_net):
        # A->D direct is 40 km; A->C->D is 15 km.
        result = shortest(square_net, "A", "D")
        assert result.nodes == ("A", "C", "D")

    def test_weight_matches_path(self, square_net):
        result = shortest(square_net, "A", "D")
        assert result.weight == pytest.approx(
            path_latency_ms(square_net, result.nodes)
        )

    def test_source_equals_destination(self, square_net):
        result = shortest(square_net, "A", "A")
        assert result.nodes == ("A",)
        assert result.weight == 0.0
        assert result.hops == 0

    def test_hop_weight_counts_edges(self, square_net):
        result = shortest(square_net, "A", "D", HopWeightSpec(square_net))
        assert result.hops == 1  # direct A-D wins on hop count

    def test_unreachable_raises(self, square_net):
        square_net.add_node("island")
        with pytest.raises(NoPathError):
            shortest(square_net, "A", "island")

    def test_infinite_weight_blocks_edges(self, square_net):
        def weight(src, dst):
            if {src, dst} == {"A", "C"}:
                return math.inf
            return square_net.edge_latency_ms(src, dst)

        result = oracle.dijkstra(square_net, "A", "C", weight)
        assert result.nodes == ("A", "B", "C")

    def test_negative_weight_rejected(self, square_net):
        with pytest.raises(TopologyError):
            oracle.dijkstra(square_net, "A", "C", lambda s, d: -1.0)

    def test_unknown_endpoint_rejected(self, square_net):
        with pytest.raises(TopologyError):
            shortest(square_net, "A", "nowhere")

    def test_edges_property(self, square_net):
        result = shortest(square_net, "A", "D")
        assert result.edges == (("A", "C"), ("C", "D"))


class TestKShortestPaths:
    def test_first_path_is_dijkstra(self, square_net):
        paths = k_shortest(square_net, "A", "D", 3)
        assert paths[0].nodes == shortest(square_net, "A", "D").nodes

    def test_paths_sorted_by_weight(self, square_net):
        paths = k_shortest(square_net, "A", "D", 4)
        weights = [p.weight for p in paths]
        assert weights == sorted(weights)

    def test_paths_are_distinct(self, square_net):
        paths = k_shortest(square_net, "A", "D", 4)
        node_lists = [p.nodes for p in paths]
        assert len(set(node_lists)) == len(node_lists)

    def test_paths_are_loop_free(self, square_net):
        for path in k_shortest(square_net, "A", "D", 4):
            assert len(set(path.nodes)) == len(path.nodes)

    def test_returns_fewer_when_graph_exhausted(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 10.0)
        assert len(k_shortest(net, "a", "b", 5)) == 1

    def test_k_must_be_positive(self, square_net):
        with pytest.raises(TopologyError):
            k_shortest(square_net, "A", "D", 0)

    def test_no_path_raises(self, square_net):
        square_net.add_node("island")
        with pytest.raises(NoPathError):
            k_shortest(square_net, "A", "island", 2)

    def test_square_second_path(self, square_net):
        paths = k_shortest(square_net, "A", "C", 2)
        assert paths[1].nodes in (("A", "B", "C"), ("A", "D", "C"))


class TestTreeResult:
    def test_path_to_root_walks_parents(self, square_net):
        tree = terminal_tree(square_net, "A", ["B", "C", "D"])
        path = tree.path_to_root("D")
        assert path[0] == "D"
        assert path[-1] == "A"

    def test_children_inverse_of_parent(self, square_net):
        tree = terminal_tree(square_net, "A", ["B", "C", "D"])
        children = tree.children()
        for child, parent in tree.parent.items():
            assert child in children[parent]


class TestTerminalTree:
    def test_single_terminal_is_trivial(self, square_net):
        tree = terminal_tree(square_net, "A", ["A"])
        assert tree.parent == {}
        assert tree.weight == 0.0

    def test_contains_all_terminals(self, line_net):
        tree = terminal_tree(line_net, "S1", ["S2", "S3"])
        for terminal in ("S1", "S2", "S3"):
            assert terminal in tree.nodes

    def test_shares_common_trunk(self, line_net):
        # S1 -> S2 and S1 -> S3 share the S1-R1-R2 trunk; the tree must
        # include the trunk once (5 nodes -> 4 edges, not the 3+3 hops of
        # two independent end-to-end paths).
        tree = terminal_tree(line_net, "S1", ["S2", "S3"])
        assert len(tree.parent) == 4

    def test_every_terminal_reaches_root(self, mesh_net):
        servers = mesh_net.servers()
        root, terminals = servers[0], servers[1:6]
        tree = terminal_tree(mesh_net, root, terminals)
        for terminal in terminals:
            path = tree.path_to_root(terminal)
            assert path[-1] == root
            # Path edges must be physical links.
            for a, b in zip(path, path[1:]):
                assert mesh_net.has_link(a, b)

    def test_is_acyclic(self, mesh_net):
        servers = mesh_net.servers()
        tree = terminal_tree(mesh_net, servers[0], servers[1:8])
        # Each node except the root has exactly one parent; walking to the
        # root terminates (path_to_root raises on cycles).
        for node in tree.nodes:
            tree.path_to_root(node)

    def test_unreachable_terminal_raises(self, square_net):
        square_net.add_node("island")
        with pytest.raises(NoPathError):
            terminal_tree(square_net, "A", ["island"])

    def test_duplicate_terminals_deduped(self, line_net):
        tree = terminal_tree(line_net, "S1", ["S2", "S2", "S2"])
        assert tree.path_to_root("S2")[-1] == "S1"

    def test_root_in_terminals_is_fine(self, line_net):
        tree = terminal_tree(line_net, "S1", ["S1", "S2"])
        assert tree.root == "S1"

    def test_weight_sums_child_parent_edges(self, line_net):
        tree = terminal_tree(line_net, "S1", ["S2", "S3"])
        expected = sum(
            line_net.edge_latency_ms(child, parent)
            for child, parent in tree.parent.items()
        )
        assert tree.weight == pytest.approx(expected)

    def test_depth(self, line_net):
        tree = terminal_tree(line_net, "S1", ["S2"])
        # S1 - R1 - R2 - S2: S2 is 3 edges deep.
        assert tree.depth("S2") == 3
        assert tree.depth("S1") == 0

    def test_unknown_root_rejected_by_cache(self):
        net = nsfnet()
        with pytest.raises(TopologyError, match="unknown node 'ghost'"):
            get_cache(net).terminal_tree("ghost", [], LatencyWeightSpec(net))

    def test_unknown_root_rejected_uncached(self):
        net = nsfnet()
        with pytest.raises(TopologyError, match="unknown node 'ghost'"):
            csr.terminal_tree_csr(net, "ghost", [], LatencyWeightSpec(net))


class TestPathLatency:
    def test_sums_hops(self, square_net):
        total = path_latency_ms(square_net, ["A", "B", "C"])
        assert total == pytest.approx((10.0 + 10.0) * 0.005)

    def test_single_node_is_zero(self, square_net):
        assert path_latency_ms(square_net, ["A"]) == 0.0

    def test_unknown_link_raises(self, square_net):
        with pytest.raises(TopologyError):
            path_latency_ms(square_net, ["A", "C", "B", "D"])

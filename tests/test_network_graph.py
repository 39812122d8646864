"""Tests for the Network container."""

import pytest

from repro.errors import CapacityError, TopologyError
from repro.network.graph import Network
from repro.network.node import NodeKind


def square():
    net = Network()
    for name in "ABCD":
        net.add_node(name)
    net.add_link("A", "B", 100.0)
    net.add_link("B", "C", 100.0)
    net.add_link("C", "D", 100.0)
    net.add_link("D", "A", 100.0)
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node("A")
        with pytest.raises(TopologyError):
            net.add_node("A")

    def test_link_requires_known_endpoints(self):
        net = Network()
        net.add_node("A")
        with pytest.raises(TopologyError):
            net.add_link("A", "missing", 10.0)

    def test_duplicate_link_rejected_either_orientation(self):
        net = Network()
        net.add_node("A")
        net.add_node("B")
        net.add_link("A", "B", 10.0)
        with pytest.raises(TopologyError):
            net.add_link("B", "A", 10.0)

    def test_counts(self):
        net = square()
        assert net.node_count == 4
        assert net.link_count == 4

    def test_contains(self):
        net = square()
        assert "A" in net
        assert "Z" not in net


class TestLookup:
    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            square().node("Z")

    def test_link_lookup_symmetric(self):
        net = square()
        assert net.link("A", "B") is net.link("B", "A")

    def test_missing_link_raises(self):
        with pytest.raises(TopologyError):
            square().link("A", "C")

    def test_neighbors_in_insertion_order(self):
        net = square()
        assert net.neighbors("A") == ["B", "D"]

    def test_degree(self):
        assert square().degree("A") == 2

    def test_nodes_filtered_by_kind(self):
        net = Network()
        net.add_node("r", NodeKind.ROUTER)
        net.add_node("s", NodeKind.SERVER)
        assert net.node_names(NodeKind.SERVER) == ["s"]

    def test_servers_lists_model_hosts(self):
        net = Network()
        net.add_node("r", NodeKind.ROUTER)
        net.add_node("s1", NodeKind.SERVER)
        net.add_node("s2", NodeKind.SERVER)
        assert net.servers() == ["s1", "s2"]

    def test_directed_edges_cover_both_orientations(self):
        net = square()
        edges = {(l.u, l.v) for l in net.links()} | {(l.v, l.u) for l in net.links()}
        assert ("A", "B") in edges
        assert ("B", "A") in edges
        assert len(edges) == 8


class TestConnectivity:
    def test_connected_square(self):
        assert square().is_connected()

    def test_disconnected_detected(self):
        net = square()
        net.add_node("island")
        assert not net.is_connected()

    def test_empty_network_is_connected(self):
        assert Network().is_connected()


class TestCapacity:
    def test_reserve_path_reserves_every_hop(self):
        net = square()
        net.reserve_path(["A", "B", "C"], 10.0, "task")
        assert net.residual_gbps("A", "B") == pytest.approx(90.0)
        assert net.residual_gbps("B", "C") == pytest.approx(90.0)
        # Reverse directions untouched.
        assert net.residual_gbps("B", "A") == pytest.approx(100.0)

    def test_reserve_path_rolls_back_on_failure(self):
        net = square()
        net.reserve_edge("B", "C", 95.0, "other")
        with pytest.raises(CapacityError):
            net.reserve_path(["A", "B", "C"], 10.0, "task")
        assert net.residual_gbps("A", "B") == pytest.approx(100.0)
        assert net.owner_total_gbps("task") == 0.0

    def test_release_owner_network_wide(self):
        net = square()
        net.reserve_path(["A", "B", "C", "D"], 10.0, "task")
        released = net.release_owner("task")
        assert released == pytest.approx(30.0)
        assert net.total_reserved_gbps() == 0.0

    def test_owner_total(self):
        net = square()
        net.reserve_path(["A", "B", "C"], 10.0, "task")
        assert net.owner_total_gbps("task") == pytest.approx(20.0)

    def test_total_reserved_sums_all_owners(self):
        net = square()
        net.reserve_edge("A", "B", 10.0, "x")
        net.reserve_edge("B", "A", 15.0, "y")
        assert net.total_reserved_gbps() == pytest.approx(25.0)


class TestCopy:
    def test_copy_topology_has_no_reservations(self):
        net = square()
        net.reserve_edge("A", "B", 50.0, "task")
        clone = net.copy_topology()
        assert clone.residual_gbps("A", "B") == pytest.approx(100.0)
        assert clone.node_count == net.node_count
        assert clone.link_count == net.link_count

    def test_copy_preserves_node_kinds_and_overrides(self):
        net = Network()
        net.add_node("r", NodeKind.ROUTER, aggregation_capable=False)
        clone = net.copy_topology()
        assert clone.node("r").kind is NodeKind.ROUTER
        assert clone.node("r").can_aggregate is False

    def test_copy_preserves_link_latency(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 10.0, distance_km=123.0)
        clone = net.copy_topology()
        assert clone.link("a", "b").latency_ms == net.link("a", "b").latency_ms

    def test_copy_is_independent(self):
        net = square()
        clone = net.copy_topology()
        clone.reserve_edge("A", "B", 10.0, "task")
        assert net.residual_gbps("A", "B") == pytest.approx(100.0)

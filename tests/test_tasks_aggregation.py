"""Tests for the aggregation cost model and the upload aggregation plan."""

import pytest

from repro.errors import ConfigurationError, TaskError
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import LatencyWeightSpec, get_cache
from repro.tasks.aggregation import AggregationModel, UploadAggregationPlan


def terminal_tree(net, root, terminals):
    return get_cache(net).terminal_tree(root, terminals, LatencyWeightSpec(net))


class TestAggregationModel:
    def test_merge_time_scales_with_size(self):
        model = AggregationModel(merge_ms_per_mb=0.01, fixed_overhead_ms=0.0)
        assert model.merge_ms(100.0) == pytest.approx(1.0)
        assert model.merge_ms(200.0) == pytest.approx(2.0)

    def test_merge_time_scales_with_count(self):
        model = AggregationModel(merge_ms_per_mb=0.01, fixed_overhead_ms=0.1)
        assert model.merge_ms(100.0, 3) == pytest.approx(3 * (0.1 + 1.0))

    def test_zero_merges_is_free(self):
        assert AggregationModel().merge_ms(100.0, 0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            AggregationModel().merge_ms(-1.0)
        with pytest.raises(ConfigurationError):
            AggregationModel().merge_ms(1.0, -1)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ConfigurationError):
            AggregationModel(merge_ms_per_mb=-0.1)


def star_network(center_kind=NodeKind.ROUTER):
    """Root - center - three sources."""
    net = Network()
    net.add_node("root", NodeKind.SERVER)
    net.add_node("mid", center_kind)
    for name in ("s1", "s2", "s3"):
        net.add_node(name, NodeKind.SERVER)
        net.add_link(name, "mid", 100.0, distance_km=10.0)
    net.add_link("mid", "root", 100.0, distance_km=10.0)
    return net


class TestUploadAggregationPlan:
    def test_router_branch_merges(self):
        net = star_network(NodeKind.ROUTER)
        tree = terminal_tree(net, "root", ["s1", "s2", "s3"])
        plan = UploadAggregationPlan(net, tree, ["s1", "s2", "s3"])
        assert plan.at("mid").merges == 2
        assert plan.at("mid").payloads_out == 1
        assert plan.payloads_on_edge("mid") == 1
        assert plan.aggregation_nodes == ["mid"]

    def test_roadm_branch_cannot_merge(self):
        net = star_network(NodeKind.ROADM)
        tree = terminal_tree(net, "root", ["s1", "s2", "s3"])
        plan = UploadAggregationPlan(net, tree, ["s1", "s2", "s3"])
        assert plan.at("mid").merges == 0
        assert plan.payloads_on_edge("mid") == 3  # unmerged replicas
        # The root (a server) then merges everything.
        assert plan.at("root").merges == 2

    def test_total_merges_is_sources_minus_one(self):
        for kind in (NodeKind.ROUTER, NodeKind.ROADM):
            net = star_network(kind)
            tree = terminal_tree(net, "root", ["s1", "s2", "s3"])
            plan = UploadAggregationPlan(net, tree, ["s1", "s2", "s3"])
            assert plan.total_merges == 2

    def test_delivered_payloads_is_one(self):
        net = star_network()
        tree = terminal_tree(net, "root", ["s1", "s2", "s3"])
        plan = UploadAggregationPlan(net, tree, ["s1", "s2", "s3"])
        assert plan.delivered_payloads == 1

    def test_leaf_sources_emit_one_payload(self):
        net = star_network()
        tree = terminal_tree(net, "root", ["s1", "s2", "s3"])
        plan = UploadAggregationPlan(net, tree, ["s1", "s2", "s3"])
        for source in ("s1", "s2", "s3"):
            assert plan.payloads_on_edge(source) == 1
            assert plan.at(source).merges == 0

    def test_intermediate_source_contributes_own_payload(self):
        # Chain: root - mid(server source) - s1(source).
        net = Network()
        net.add_node("root", NodeKind.SERVER)
        net.add_node("mid", NodeKind.SERVER)
        net.add_node("s1", NodeKind.SERVER)
        net.add_link("root", "mid", 100.0)
        net.add_link("mid", "s1", 100.0)
        tree = terminal_tree(net, "root", ["mid", "s1"])
        plan = UploadAggregationPlan(net, tree, ["mid", "s1"])
        record = plan.at("mid")
        assert record.payloads_in == 2  # child payload + own
        assert record.merges == 1
        assert plan.payloads_on_edge("mid") == 1

    def test_source_outside_tree_rejected(self):
        net = star_network()
        tree = terminal_tree(net, "root", ["s1", "s2"])
        with pytest.raises(TaskError):
            UploadAggregationPlan(net, tree, ["s1", "s3"])

    def test_unknown_node_queries_rejected(self):
        net = star_network()
        tree = terminal_tree(net, "root", ["s1"])
        plan = UploadAggregationPlan(net, tree, ["s1"])
        with pytest.raises(TaskError):
            plan.at("nope")
        with pytest.raises(TaskError):
            plan.payloads_on_edge("root")  # root has no parent edge

    def test_conservation_property(self, mesh_net):
        """Every source's contribution reaches the root exactly once."""
        servers = mesh_net.servers()
        root, sources = servers[0], servers[1:9]
        tree = terminal_tree(mesh_net, root, sources)
        plan = UploadAggregationPlan(mesh_net, tree, sources)
        # merges + delivered payloads == number of sources
        assert plan.total_merges + plan.delivered_payloads == len(sources)

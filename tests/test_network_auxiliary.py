"""Tests for auxiliary-graph weight construction."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.network.auxiliary import AuxiliaryGraphBuilder, AuxiliaryWeights
from repro.network.graph import Network


def pair_net(capacity=100.0):
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", capacity, distance_km=100.0)
    return net


class TestAuxiliaryWeights:
    def test_defaults_valid(self):
        AuxiliaryWeights()

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigurationError):
            AuxiliaryWeights(alpha_bandwidth=-1.0)

    def test_negative_reuse_rejected(self):
        with pytest.raises(ConfigurationError):
            AuxiliaryWeights(reuse_discount=-0.1)

    @pytest.mark.parametrize(
        "field",
        ["alpha_bandwidth", "beta_latency", "gamma_congestion", "reuse_discount"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, field, value):
        # `nan < 0` is False, so a sign test alone let NaN through and
        # every lowered edge weight became NaN.
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            AuxiliaryWeights(**{field: value})


class TestBuilderDemand:
    @pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_invalid_demand_rejected(self, demand):
        with pytest.raises(ConfigurationError, match="demand must be finite"):
            AuxiliaryGraphBuilder(pair_net(), demand_gbps=demand)


class TestEdgeWeight:
    def test_includes_latency_term(self):
        net = pair_net()
        builder = AuxiliaryGraphBuilder(
            net,
            demand_gbps=10.0,
            weights=AuxiliaryWeights(
                alpha_bandwidth=0.0, beta_latency=1.0, gamma_congestion=0.0
            ),
        )
        assert builder.edge_weight("a", "b") == pytest.approx(0.5)  # 100 km

    def test_bandwidth_term_normalised_by_capacity(self):
        weights = AuxiliaryWeights(
            alpha_bandwidth=1.0, beta_latency=0.0, gamma_congestion=0.0
        )
        small = AuxiliaryGraphBuilder(
            pair_net(capacity=20.0), demand_gbps=10.0, weights=weights
        )
        large = AuxiliaryGraphBuilder(
            pair_net(capacity=200.0), demand_gbps=10.0, weights=weights
        )
        assert small.edge_weight("a", "b") > large.edge_weight("a", "b")

    def test_infeasible_edge_is_infinite(self):
        net = pair_net(capacity=100.0)
        net.reserve_edge("a", "b", 95.0, "other")
        builder = AuxiliaryGraphBuilder(net, demand_gbps=10.0)
        assert math.isinf(builder.edge_weight("a", "b"))
        # Opposite direction still fine.
        assert math.isfinite(builder.edge_weight("b", "a"))

    def test_congestion_raises_weight(self):
        net = pair_net()
        builder = AuxiliaryGraphBuilder(net, demand_gbps=10.0)
        empty = builder.edge_weight("a", "b")
        net.reserve_edge("a", "b", 60.0, "other")
        loaded = builder.edge_weight("a", "b")
        assert loaded > empty

    def test_own_reservation_discounts_edge(self):
        net = pair_net()
        weights = AuxiliaryWeights(
            alpha_bandwidth=1.0, beta_latency=0.0, gamma_congestion=0.0
        )
        builder = AuxiliaryGraphBuilder(
            net, demand_gbps=10.0, owner="me", weights=weights
        )
        fresh = builder.edge_weight("a", "b")
        net.reserve_edge("a", "b", 10.0, "me")
        reused = builder.edge_weight("a", "b")
        assert reused < fresh

    def test_own_reservation_keeps_full_edge_usable(self):
        # Even a full link is usable when this task already owns the rate.
        net = pair_net(capacity=10.0)
        net.reserve_edge("a", "b", 10.0, "me")
        builder = AuxiliaryGraphBuilder(net, demand_gbps=10.0, owner="me")
        assert math.isfinite(builder.edge_weight("a", "b"))

    def test_partial_own_reservation_not_enough(self):
        net = pair_net(capacity=10.0)
        net.reserve_edge("a", "b", 5.0, "me")
        net.reserve_edge("a", "b", 5.0, "other")
        builder = AuxiliaryGraphBuilder(net, demand_gbps=10.0, owner="me")
        assert math.isinf(builder.edge_weight("a", "b"))

    def test_zero_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            AuxiliaryGraphBuilder(pair_net(), demand_gbps=0.0)

    def test_weight_fn_matches_edge_weight(self):
        builder = AuxiliaryGraphBuilder(pair_net(), demand_gbps=1.0)
        assert builder.weight_fn()("a", "b") == builder.edge_weight("a", "b")

"""Tests for the background traffic generator."""

import pytest

from repro.errors import ConfigurationError, NoPathError
from repro.network import routing
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.paths import latency_weight
from repro.network.topology import metro_mesh, nsfnet, scale_free
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.generator import TrafficGenerator
from tests.oracle import dijkstra

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def oracle_inject_static(network, seed, n_flows, rate_gbps=5.0):
    """Static injection one flow at a time on the oracle's object Dijkstra.

    Draws the generator's pairs and flow ids from the same stream, then
    routes each flow and reserves it before drawing the next: the
    reference the batched generator must reproduce.
    """
    rng = RandomStreams(seed).stream("traffic")
    endpoints = network.node_names(NodeKind.ROUTER)
    if len(endpoints) < 2:
        endpoints = network.node_names(NodeKind.LEAF)
    if len(endpoints) < 2:
        endpoints = network.node_names()
    flows = []
    for index in range(n_flows):
        src, dst = rng.sample(endpoints, 2)
        flow_id = f"bg-{index}"
        try:
            path = dijkstra(network, src, dst, latency_weight(network)).nodes
        except NoPathError:
            continue
        rate = rate_gbps
        for edge in zip(path, path[1:]):
            rate = min(rate, network.residual_gbps(*edge))
        if rate <= 1e-6:
            continue
        network.reserve_path(list(path), rate, flow_id)
        flows.append((flow_id, path, rate))
    return flows


def ledger(network):
    """Every link's per-direction, per-owner reservations and used sums."""
    rows = []
    for link in network.links():
        for src, dst in ((link.u, link.v), (link.v, link.u)):
            rows.append(
                (src, dst, list(link.reservations(src, dst)), link.used_gbps(src, dst))
            )
    return rows


def assert_matches_oracle(network, seed, n_flows, rate_gbps=5.0):
    reference = network.copy_topology()
    expected = oracle_inject_static(reference, seed, n_flows, rate_gbps)
    generator = TrafficGenerator(network, RandomStreams(seed), rate_gbps=rate_gbps)
    flows = generator.inject_static(n_flows)
    assert [(f.flow_id, f.path, f.rate_gbps) for f in flows] == expected
    assert ledger(network) == ledger(reference)
    # One-shot routes never enter (or even create) the path cache.
    assert routing.peek_cache(network) is None
    return flows


class TestStaticInjection:
    def test_flows_reserve_capacity(self, mesh_net):
        generator = TrafficGenerator(mesh_net, RandomStreams(1), rate_gbps=5.0)
        flows = generator.inject_static(10)
        assert len(flows) == 10
        assert mesh_net.total_reserved_gbps() > 0

    def test_reproducible(self, mesh_net):
        a_net = mesh_net.copy_topology()
        b_net = mesh_net.copy_topology()
        a = TrafficGenerator(a_net, RandomStreams(7)).inject_static(8)
        b = TrafficGenerator(b_net, RandomStreams(7)).inject_static(8)
        assert [f.path for f in a] == [f.path for f in b]
        assert [f.rate_gbps for f in a] == [f.rate_gbps for f in b]

    def test_flows_route_between_routers(self, mesh_net):
        from repro.network.node import NodeKind

        generator = TrafficGenerator(mesh_net, RandomStreams(1))
        for flow in generator.inject_static(10):
            assert mesh_net.node(flow.path[0]).kind is NodeKind.ROUTER
            assert mesh_net.node(flow.path[-1]).kind is NodeKind.ROUTER

    def test_rate_capped_by_residual(self, mesh_net):
        generator = TrafficGenerator(
            mesh_net, RandomStreams(1), rate_gbps=1e6
        )
        flows = generator.inject_static(3)
        for flow in flows:
            assert flow.rate_gbps <= 100.0  # link capacity

    def test_negative_count_rejected(self, mesh_net):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(mesh_net).inject_static(-1)

    def test_invalid_rate_rejected(self, mesh_net):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(mesh_net, rate_gbps=0.0)

    @pytest.mark.parametrize("rate", NON_FINITE, ids=str)
    def test_non_finite_rate_rejected(self, rate):
        network = nsfnet()
        with pytest.raises(ConfigurationError, match="must be finite and > 0"):
            TrafficGenerator(network, RandomStreams(1), rate_gbps=rate)
        assert network.total_reserved_gbps() == 0.0


class TestBatchedRouting:
    """Batched injection equals routing and reserving one flow at a time."""

    def test_hub_fabric(self):
        network = scale_free(n_routers=1000, m_links=2, seed=1, servers_per_site=1)
        flows = assert_matches_oracle(network, 42, 50)
        assert len(flows) == 50

    @pytest.mark.parametrize("seed", [0, 3])
    def test_nsfnet_saturated(self, seed):
        # 60 flows at 40 Gbps over 100 Gbps spans: later flows are capped
        # by the residual earlier ones left, and some find none at all.
        network = nsfnet()
        flows = assert_matches_oracle(network, seed, 60, rate_gbps=40.0)
        assert any(flow.rate_gbps < 40.0 for flow in flows)
        assert len(flows) < 60

    def test_link_failed_before_injection(self):
        network = metro_mesh(n_sites=8, servers_per_site=1)
        for u, v in network.inter_switch_links()[::3]:
            network.fail_link(u, v)
        flows = assert_matches_oracle(network, 5, 20)
        for flow in flows:
            for u, v in zip(flow.path, flow.path[1:]):
                assert not network.link(u, v).failed

    def test_unreachable_pair_consumes_its_flow_id(self):
        network = Network("islands")
        for name in ("a", "b", "c", "x", "y"):
            network.add_node(name, NodeKind.ROUTER)
        network.add_link("a", "b", 100.0)
        network.add_link("b", "c", 100.0)
        network.add_link("x", "y", 100.0)
        flows = assert_matches_oracle(network, 2, 12)
        ids = [int(flow.flow_id.split("-")[1]) for flow in flows]
        assert 0 < len(ids) < 12
        assert ids != list(range(len(ids)))  # a blocked pair left a gap


class TestRemoval:
    def test_remove_flow_releases_exactly(self, mesh_net):
        generator = TrafficGenerator(mesh_net, RandomStreams(1), rate_gbps=5.0)
        (flow,) = generator.inject_static(1)
        expected = (len(flow.path) - 1) * flow.rate_gbps
        assert generator.remove_flow(flow.flow_id) == pytest.approx(expected)
        assert mesh_net.total_reserved_gbps() == 0.0

    def test_clear_releases_everything(self, mesh_net):
        generator = TrafficGenerator(mesh_net, RandomStreams(1))
        generator.inject_static(12)
        generator.clear()
        assert mesh_net.total_reserved_gbps() == 0.0
        assert generator.flows == []


class TestDynamicMode:
    def test_flows_arrive_and_depart(self, mesh_net):
        generator = TrafficGenerator(mesh_net, RandomStreams(3), rate_gbps=5.0)
        sim = Simulator()
        generator.start(
            sim,
            duration_ms=500.0,
            mean_interarrival_ms=20.0,
            mean_holding_ms=50.0,
        )
        sim.run()
        # Arrivals happened, and every short-lived flow departed by the
        # time the event queue drained (holding << duration).
        assert generator.injected_count > 5
        assert len(generator.flows) == 0

    def test_departures_release_capacity(self, mesh_net):
        generator = TrafficGenerator(mesh_net, RandomStreams(3), rate_gbps=5.0)
        sim = Simulator()
        generator.start(
            sim,
            duration_ms=200.0,
            mean_interarrival_ms=10.0,
            mean_holding_ms=20.0,
        )
        sim.run()
        # Drain: remove the survivors; nothing must remain reserved.
        generator.clear()
        assert mesh_net.total_reserved_gbps() == pytest.approx(0.0)

    def test_invalid_parameters_rejected(self, mesh_net):
        generator = TrafficGenerator(mesh_net)
        with pytest.raises(ConfigurationError):
            generator.start(Simulator(), duration_ms=10.0, mean_interarrival_ms=0.0)

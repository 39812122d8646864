"""Tests for the grooming layer (lightpath reuse and lifecycle)."""

import pytest

from repro.errors import CapacityError, NoPathError, WavelengthError
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.paths import latency_weight
from repro.network.topology import nsfnet
from repro.optical.grooming import GroomingLayer
from repro.optical.roadm import RoadmPorts
from repro.optical.wavelength import WDMGrid
from tests.oracle import dijkstra


@pytest.fixture
def optical_chain():
    net = Network()
    for name in ("x", "m", "y"):
        net.add_node(name)
    net.add_link("x", "m", 400.0, distance_km=30.0)
    net.add_link("m", "y", 400.0, distance_km=30.0)
    return net


def make_layer(net, n_wavelengths=4, ports=None):
    grid = WDMGrid(net, n_wavelengths=n_wavelengths, channel_gbps=100.0)
    return GroomingLayer(net, grid, ports=ports)


class TestEstablish:
    def test_routes_shortest_path(self, optical_chain):
        layer = make_layer(optical_chain)
        lp = layer.establish("x", "y")
        assert lp.path == ("x", "m", "y")
        assert lp.channel == 0

    def test_explicit_path_honoured(self, optical_chain):
        layer = make_layer(optical_chain)
        lp = layer.establish("x", "m", path=("x", "m"))
        assert lp.path == ("x", "m")

    def test_wavelength_exhaustion(self, optical_chain):
        layer = make_layer(optical_chain, n_wavelengths=1)
        layer.establish("x", "y")
        with pytest.raises(WavelengthError):
            layer.establish("x", "y")

    def test_port_exhaustion_rolls_back_wavelength(self, optical_chain):
        ports = RoadmPorts(ports_per_site=1)
        layer = make_layer(optical_chain, ports=ports)
        layer.establish("x", "y")
        with pytest.raises(CapacityError):
            layer.establish("x", "y")
        # The failed attempt must not leak a lit channel.
        assert len(layer._grid.occupied("x", "m")) == 1


class TestGroomDemand:
    def test_new_demand_lights_lightpath(self, optical_chain):
        layer = make_layer(optical_chain)
        lp = layer.groom_demand("d1", "x", "y", 30.0)
        assert lp.used_gbps == pytest.approx(30.0)
        assert len(layer.lightpaths) == 1

    def test_second_demand_reuses_spare(self, optical_chain):
        layer = make_layer(optical_chain)
        first = layer.groom_demand("d1", "x", "y", 30.0)
        second = layer.groom_demand("d2", "x", "y", 40.0)
        assert first.lightpath_id == second.lightpath_id
        assert len(layer.lightpaths) == 1

    def test_overflow_lights_second_wavelength(self, optical_chain):
        layer = make_layer(optical_chain)
        layer.groom_demand("d1", "x", "y", 80.0)
        layer.groom_demand("d2", "x", "y", 50.0)
        assert len(layer.lightpaths) == 2

    def test_super_wavelength_demand_inverse_multiplexed(self, optical_chain):
        layer = make_layer(optical_chain)
        layer.groom_demand("d1", "x", "y", 150.0)
        # 150 Gbps over 100 Gbps channels: two lightpaths, fully+half used.
        assert len(layer.lightpaths) == 2
        assert sum(lp.used_gbps for lp in layer.lightpaths) == pytest.approx(150.0)
        # Release drains both.
        assert layer.release_demand("d1") == pytest.approx(150.0)
        assert len(layer.lightpaths) == 0

    def test_super_wavelength_beyond_spectrum_rolls_back(self, optical_chain):
        layer = make_layer(optical_chain, n_wavelengths=1)
        with pytest.raises(Exception):
            layer.groom_demand("d1", "x", "y", 150.0)  # needs 2 channels
        assert len(layer.lightpaths) == 0  # the partial slice was rolled back
        # Spectrum is reusable afterwards.
        layer.groom_demand("d2", "x", "y", 80.0)

    def test_opposite_directions_use_separate_lightpaths(self, optical_chain):
        layer = make_layer(optical_chain)
        layer.groom_demand("d1", "x", "y", 10.0)
        layer.groom_demand("d2", "y", "x", 10.0)
        assert len(layer.lightpaths) == 2


class TestRelease:
    def test_release_tears_down_idle_lightpath(self, optical_chain):
        layer = make_layer(optical_chain)
        layer.groom_demand("d1", "x", "y", 30.0)
        freed = layer.release_demand("d1")
        assert freed == pytest.approx(30.0)
        assert len(layer.lightpaths) == 0

    def test_release_keeps_shared_lightpath(self, optical_chain):
        layer = make_layer(optical_chain)
        layer.groom_demand("d1", "x", "y", 30.0)
        layer.groom_demand("d2", "x", "y", 30.0)
        layer.release_demand("d1")
        assert len(layer.lightpaths) == 1

    def test_release_unknown_demand_is_zero(self, optical_chain):
        assert make_layer(optical_chain).release_demand("ghost") == 0.0

    def test_teardown_with_demands_rejected(self, optical_chain):
        layer = make_layer(optical_chain)
        lp = layer.groom_demand("d1", "x", "y", 30.0)
        with pytest.raises(CapacityError):
            layer.teardown(lp.lightpath_id)

    def test_released_wavelength_is_reusable(self, optical_chain):
        layer = make_layer(optical_chain, n_wavelengths=1)
        layer.groom_demand("d1", "x", "y", 30.0)
        layer.release_demand("d1")
        layer.groom_demand("d2", "x", "y", 30.0)  # channel free again


class TestMetrics:
    def test_lit_wavelength_hops(self, optical_chain):
        layer = make_layer(optical_chain)
        layer.groom_demand("d1", "x", "y", 30.0)  # 2 hops
        layer.groom_demand("d2", "x", "m", 30.0)  # 1 hop
        assert layer.lit_wavelength_hops == 3


class TestDefaultRoute:
    """The default lightpath is the oracle's latency-shortest path."""

    @pytest.mark.parametrize("failed", [False, True])
    def test_equals_object_dijkstra(self, failed):
        net = nsfnet()
        if failed:
            for u, v in net.inter_switch_links()[::4]:
                net.fail_link(u, v)
        layer = make_layer(net, n_wavelengths=64)
        routers = net.node_names(NodeKind.ROUTER)
        for src, dst in zip(routers, routers[5:] + routers[:5]):
            try:
                expected = dijkstra(net, src, dst, latency_weight(net)).nodes
            except NoPathError:
                with pytest.raises(NoPathError):
                    layer.establish(src, dst)
                continue
            assert layer.establish(src, dst).path == expected

    def test_unreachable_raises_no_path(self):
        net = Network()
        for name in ("a", "b", "c"):
            net.add_node(name)
        net.add_link("a", "b", 400.0)
        layer = make_layer(net)
        with pytest.raises(NoPathError) as info:
            layer.establish("a", "c")
        assert (info.value.source, info.value.destination) == ("a", "c")
        assert layer.lightpaths == []

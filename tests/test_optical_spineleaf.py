"""Tests for the all-optical spine-leaf fabric (OCS + OTS)."""

import pytest

from repro.errors import CapacityError, ConfigurationError, TopologyError, WavelengthError
from repro.network.topology import spine_leaf
from repro.optical.spineleaf import OpticalSpineLeaf


@pytest.fixture
def fabric():
    net = spine_leaf(n_spines=2, n_leaves=4, servers_per_leaf=1)
    return OpticalSpineLeaf(net, n_wavelengths=2, channel_gbps=100.0, slots_per_channel=10)


class TestTopologyBinding:
    def test_requires_spine_leaf_nodes(self):
        from repro.network.graph import Network

        net = Network()
        net.add_node("a")
        with pytest.raises(TopologyError):
            OpticalSpineLeaf(net)

    def test_leaf_of_server(self, fabric):
        assert fabric.leaf_of("SRV-2-0") == "LF-2"

    def test_leaf_of_non_attached_raises(self):
        net = spine_leaf(n_spines=2, n_leaves=4, servers_per_leaf=1)
        # An orphan server wired straight to a spine has no leaf.
        from repro.network.node import NodeKind

        net.add_node("orphan", NodeKind.SERVER)
        net.add_link("orphan", "SP-0", 100.0)
        fabric = OpticalSpineLeaf(net)
        with pytest.raises(TopologyError):
            fabric.leaf_of("orphan")


class TestConnect:
    def test_establishes_circuit_through_spine(self, fabric):
        circuit = fabric.connect("d1", "LF-0", "LF-1", 20.0)
        assert circuit.path[0] == "LF-0"
        assert circuit.path[-1] == "LF-1"
        assert circuit.spine.startswith("SP-")
        assert fabric.lit_channels == 1

    def test_ots_sharing_on_same_pair(self, fabric):
        first = fabric.connect("d1", "LF-0", "LF-1", 20.0)
        second = fabric.connect("d2", "LF-0", "LF-1", 20.0)
        assert first is second  # shared circuit, no new wavelength
        assert fabric.lit_channels == 1

    def test_full_circuit_triggers_new_wavelength(self, fabric):
        fabric.connect("d1", "LF-0", "LF-1", 90.0)
        fabric.connect("d2", "LF-0", "LF-1", 90.0)
        assert fabric.lit_channels == 2

    def test_spine_load_balancing(self, fabric):
        fabric.connect("d1", "LF-0", "LF-1", 90.0)
        fabric.connect("d2", "LF-2", "LF-3", 90.0)
        spines = {c.spine for c in fabric.circuits}
        assert len(spines) == 2  # least-loaded spine picked second

    def test_intra_leaf_rejected(self, fabric):
        with pytest.raises(ConfigurationError):
            fabric.connect("d1", "LF-0", "LF-0", 10.0)

    def test_super_channel_demand_rejected(self, fabric):
        with pytest.raises(CapacityError):
            fabric.connect("d1", "LF-0", "LF-1", 150.0)

    def test_wavelength_exhaustion(self, fabric):
        # 2 spines x 2 wavelengths on LF-0 uplinks = 4 circuits max.
        for i in range(4):
            fabric.connect(f"d{i}", "LF-0", "LF-1", 95.0)
        with pytest.raises(WavelengthError):
            fabric.connect("d9", "LF-0", "LF-1", 95.0)


class TestDisconnect:
    def test_drained_circuit_torn_down(self, fabric):
        fabric.connect("d1", "LF-0", "LF-1", 20.0)
        torn = fabric.disconnect("d1")
        assert torn == 1
        assert fabric.lit_channels == 0

    def test_shared_circuit_survives_partial_release(self, fabric):
        fabric.connect("d1", "LF-0", "LF-1", 20.0)
        fabric.connect("d2", "LF-0", "LF-1", 20.0)
        fabric.disconnect("d1")
        assert fabric.lit_channels == 1

    def test_spectrum_reusable_after_teardown(self, fabric):
        for i in range(4):
            fabric.connect(f"d{i}", "LF-0", "LF-1", 95.0)
        fabric.disconnect("d0")
        fabric.connect("d9", "LF-0", "LF-1", 95.0)  # no exhaustion now


class TestLatency:
    def test_two_hop_latency(self, fabric):
        ms = fabric.latency_ms("LF-0", "LF-1")
        # Two 0.5 km uplinks at 5 us/km.
        assert ms == pytest.approx(2 * 0.5 * 0.005)

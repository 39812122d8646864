"""Tests for topology builders."""

import pytest

from repro.errors import ConfigurationError
from repro.network.node import NodeKind
from repro.network.topology import (
    dumbbell,
    metro_mesh,
    metro_ring,
    nsfnet,
    random_geometric,
    spine_leaf,
    toy_triangle,
)


class TestToyTriangle:
    def test_connected(self):
        assert toy_triangle().is_connected()

    def test_has_four_servers(self):
        assert len(toy_triangle().servers()) == 4

    def test_global_candidate_present(self):
        assert "S-G" in toy_triangle().servers()


class TestMetroRing:
    def test_connected(self):
        assert metro_ring(6).is_connected()

    def test_site_structure(self):
        net = metro_ring(5, servers_per_site=2)
        assert len(net.node_names(NodeKind.ROUTER)) == 5
        assert len(net.node_names(NodeKind.ROADM)) == 5
        assert len(net.servers()) == 10

    def test_ring_closes(self):
        net = metro_ring(4)
        assert net.has_link("RT-0", "RT-3")

    def test_inter_site_paths_traverse_routers(self):
        # The IP ring runs router-to-router so in-network aggregation is
        # possible at intermediate sites (the paper's grooming routers).
        net = metro_ring(6)
        from repro.network.routing import LatencyWeightSpec, get_cache

        spec = LatencyWeightSpec(net)
        path = get_cache(net).shortest_path("SRV-0-0", "SRV-3-0", spec).nodes
        intermediate_kinds = {net.node(n).kind for n in path[1:-1]}
        assert NodeKind.ROUTER in intermediate_kinds
        assert NodeKind.ROADM not in intermediate_kinds

    def test_too_few_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            metro_ring(2)

    def test_zero_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            metro_ring(4, servers_per_site=0)


class TestMetroMesh:
    def test_connected(self):
        assert metro_mesh(8).is_connected()

    def test_has_chords(self):
        ring = metro_ring(8)
        mesh = metro_mesh(8)
        assert mesh.link_count > ring.link_count

    def test_chord_endpoints_are_routers(self):
        net = metro_mesh(8)
        assert net.has_link("RT-0", "RT-4")


class TestNsfnet:
    def test_fourteen_routers(self):
        assert len(nsfnet().node_names(NodeKind.ROUTER)) == 14

    def test_twenty_one_spans(self):
        net = nsfnet(servers_per_site=1)
        # 21 WAN spans + 14 server attachments
        assert net.link_count == 21 + 14

    def test_connected(self):
        assert nsfnet().is_connected()

    def test_wan_distances_realistic(self):
        net = nsfnet()
        assert net.link("RT-0", "RT-7").distance_km == 2800.0


class TestSpineLeaf:
    def test_full_bipartite(self):
        net = spine_leaf(n_spines=3, n_leaves=4, servers_per_leaf=1)
        for l in range(4):
            for s in range(3):
                assert net.has_link(f"LF-{l}", f"SP-{s}")

    def test_spines_cannot_aggregate(self):
        net = spine_leaf()
        assert not net.node("SP-0").can_aggregate

    def test_leaves_can_aggregate(self):
        net = spine_leaf()
        assert net.node("LF-0").can_aggregate

    def test_servers_attached_to_leaves(self):
        net = spine_leaf(n_spines=2, n_leaves=3, servers_per_leaf=2)
        assert len(net.servers()) == 6
        assert net.has_link("SRV-0-0", "LF-0")

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            spine_leaf(n_spines=0)

    def test_connected(self):
        assert spine_leaf().is_connected()


class TestDumbbell:
    def test_bottleneck_capacity(self):
        net = dumbbell(capacity_gbps=100.0, bottleneck_gbps=10.0)
        assert net.link("RT-L", "RT-R").capacity_gbps == 10.0

    def test_default_bottleneck_matches_capacity(self):
        net = dumbbell(capacity_gbps=50.0)
        assert net.link("RT-L", "RT-R").capacity_gbps == 50.0

    def test_four_servers(self):
        assert len(dumbbell().servers()) == 4


class TestRandomGeometric:
    def test_connected_for_various_seeds(self):
        for seed in range(5):
            assert random_geometric(12, seed=seed).is_connected()

    def test_reproducible(self):
        a = random_geometric(10, seed=3)
        b = random_geometric(10, seed=3)
        assert a.node_names() == b.node_names()
        assert sorted((l.u, l.v) for l in a.links()) == sorted(
            (l.u, l.v) for l in b.links()
        )

    def test_different_seeds_differ(self):
        a = random_geometric(10, seed=1)
        b = random_geometric(10, seed=2)
        assert sorted((l.u, l.v) for l in a.links()) != sorted(
            (l.u, l.v) for l in b.links()
        )

    def test_servers_per_site(self):
        net = random_geometric(6, servers_per_site=2)
        assert len(net.servers()) == 12

    def test_too_few_routers_rejected(self):
        with pytest.raises(ConfigurationError):
            random_geometric(1)

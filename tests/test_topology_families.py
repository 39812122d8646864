"""The topology subsystem: family registry, new generators, composition.

The determinism property test is the subsystem's core contract: every
registered family, existing builders included, must produce
*byte-identical* node and link sets for the same merged parameters in
any process — the invariant cross-backend sweep byte-identity rests on.
"""

import pytest

from repro.errors import ConfigurationError
from repro.network.node import NodeKind
from repro.network.topology import (
    ISP_DATASETS,
    ParamSpec,
    RegionSpec,
    TopologyFamily,
    build_topology,
    clos,
    compose,
    get_family,
    list_families,
    load_isp_map,
    regions_of,
    register_family,
    rocketfuel_isp,
    unregister_family,
    waxman,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the extra
    HAVE_HYPOTHESIS = False

#: Per-family overrides keeping property-test builds small and fast.
SMALL_PARAMS = {
    "metro-mesh": {"n_sites": 6},
    "metro-ring": {"n_sites": 4},
    "spine-leaf": {"n_spines": 2, "n_leaves": 3},
    "scale-free": {"n_routers": 10},
    "scale-free-5k": {"n_routers": 12},
    "random-geometric": {"n_routers": 8},
    "waxman": {"n_routers": 8},
    "fat-tree": {"k": 2},
    "clos": {"n_pods": 2},
    "multi-metro-wan": {
        "n_regions": 2,
        "sites_per_region": 3,
        "backbone_routers": 4,
    },
}


def fingerprint(net):
    """The byte-level identity of a network: nodes + links, in order."""
    nodes = tuple(
        (
            node.name,
            node.kind.value,
            node.aggregation_capable,
            tuple(sorted(node.attrs.items())),
        )
        for node in net.nodes()
    )
    links = tuple(
        (link.u, link.v, link.capacity_gbps, link.distance_km, link.latency_ms)
        for link in net.links()
    )
    return repr((net.name, nodes, links)).encode()


class TestRegistry:
    def test_at_least_eleven_families(self):
        assert len(list_families()) >= 11

    def test_new_families_present(self):
        names = {family.name for family in list_families()}
        assert {
            "waxman",
            "clos",
            "isp-as1221-telstra",
            "isp-as1755-ebone",
            "multi-metro-wan",
        } <= names

    def test_composite_registered(self):
        assert list_families(tag="composite")

    def test_unknown_family_rejected_with_known_list(self):
        with pytest.raises(ConfigurationError, match="registered"):
            get_family("moebius")

    def test_duplicate_registration_rejected(self):
        family = get_family("waxman")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_family(family)
        register_family(family, replace=True)  # explicit replace is fine

    def test_unregister_then_reregister(self):
        family = get_family("dumbbell")
        unregister_family("dumbbell")
        try:
            with pytest.raises(ConfigurationError):
                get_family("dumbbell")
        finally:
            register_family(family, replace=True)

    def test_tag_filtering(self):
        for family in list_families(tag="wan"):
            assert "wan" in family.tags


class TestSchema:
    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            build_topology("waxman", {"n_sites": 5})

    def test_bounds_enforced(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            build_topology("clos", {"oversubscription": 0.5})
        with pytest.raises(ConfigurationError, match="<= 1"):
            build_topology("waxman", {"alpha": 1.5})

    def test_integer_coercion(self):
        net = build_topology("waxman", {"n_routers": 8.0})
        assert len(net.node_names(NodeKind.ROUTER)) == 8

    def test_non_integral_float_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            build_topology("waxman", {"n_routers": 8.5})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="number"):
            build_topology("waxman", {"n_routers": "many"})

    def test_none_default_accepts_number_or_none_only(self):
        net = build_topology("dumbbell", {"bottleneck_gbps": 10.0})
        assert net.link("RT-L", "RT-R").capacity_gbps == 10.0
        assert build_topology("dumbbell", {"bottleneck_gbps": None})
        with pytest.raises(ConfigurationError, match="number or None"):
            build_topology("dumbbell", {"bottleneck_gbps": "fast"})

    def test_seed_kwarg_requires_seeded_family(self):
        with pytest.raises(ConfigurationError, match="no seed"):
            build_topology("nsfnet", seed=3)

    def test_seeded_flag(self):
        assert get_family("waxman").seeded
        assert not get_family("nsfnet").seeded

    def test_duplicate_schema_param_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate parameter"):
            TopologyFamily(
                name="bad",
                description="",
                builder=lambda params: None,
                schema=(ParamSpec("n", 1), ParamSpec("n", 2)),
            )

    def test_count_parameters_bounded_above(self):
        """Every count-valued parameter has a maximum, so an oversized
        size fails validation instead of running a huge build."""
        for family in list_families():
            for spec in family.schema:
                if isinstance(spec.default, int) and spec.name != "seed":
                    assert spec.maximum is not None, f"{family.name}.{spec.name}"

    def test_describe_metadata_complete(self):
        """Every parameter of every family carries a doc line."""
        for family in list_families():
            for spec in family.schema:
                assert spec.doc, f"{family.name}.{spec.name} lacks a doc"


class TestDeterminism:
    """Same params => byte-identical builds, for every registered family."""

    if HAVE_HYPOTHESIS:

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**16))
        def test_same_seed_byte_identical_all_families(self, seed):
            for family in list_families():
                params = SMALL_PARAMS.get(family.name, {})
                build_seed = seed if family.seeded else None
                first = family.build(params, seed=build_seed)
                second = family.build(params, seed=build_seed)
                assert fingerprint(first) == fingerprint(second), family.name

    def test_different_seeds_differ(self):
        for name in ("waxman", "scale-free", "random-geometric"):
            params = SMALL_PARAMS.get(name, {})
            a = build_topology(name, params, seed=1)
            b = build_topology(name, params, seed=2)
            assert fingerprint(a) != fingerprint(b), name

    def test_every_family_connected_at_defaults(self):
        for family in list_families():
            net = family.build(SMALL_PARAMS.get(family.name, {}))
            assert net.is_connected(), family.name
            assert net.servers(), family.name


class TestWaxman:
    def test_connected_for_various_seeds(self):
        for seed in range(5):
            assert waxman(12, seed=seed).is_connected()

    def test_alpha_scales_density(self):
        sparse = waxman(20, alpha=0.05, seed=3)
        dense = waxman(20, alpha=0.9, seed=3)
        assert dense.link_count > sparse.link_count

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            waxman(1)
        with pytest.raises(ConfigurationError):
            waxman(8, alpha=0.0)
        with pytest.raises(ConfigurationError):
            waxman(8, beta=1.5)

    def test_servers_attached(self):
        net = waxman(6, servers_per_site=2, seed=0)
        assert len(net.servers()) == 12


class TestClos:
    def test_nonblocking_capacity_split(self):
        """At 1:1 each tier's northbound equals its southbound."""
        net = clos(2, servers_per_leaf=2, server_gbps=25.0, oversubscription=1.0)
        # Leaf southbound 50 over 2 spine uplinks -> 25 each.
        assert net.link("LF-0-0", "SP-0-0").capacity_gbps == 25.0
        # Spine southbound 2x25 over 2 core uplinks -> 25 each.
        assert net.link("SP-0-0", "CORE-0").capacity_gbps == 25.0

    def test_oversubscription_shrinks_uplinks(self):
        ratio = 4.0
        net = clos(2, oversubscription=ratio)
        base = clos(2, oversubscription=1.0)
        assert net.link("LF-0-0", "SP-0-0").capacity_gbps == pytest.approx(
            base.link("LF-0-0", "SP-0-0").capacity_gbps / ratio
        )
        # Both tiers take the ratio: core uplinks shrink quadratically.
        assert net.link("SP-0-0", "CORE-0").capacity_gbps == pytest.approx(
            base.link("SP-0-0", "CORE-0").capacity_gbps / ratio**2
        )

    def test_cores_cannot_aggregate(self):
        net = clos(2)
        assert not net.node("CORE-0").can_aggregate
        assert net.node("LF-0-0").can_aggregate

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            clos(0)
        with pytest.raises(ConfigurationError):
            clos(2, oversubscription=0.9)


class TestRocketfuelIsp:
    def test_datasets_load_and_connect(self):
        for dataset in ISP_DATASETS:
            net = rocketfuel_isp(dataset)
            assert net.is_connected()
            assert len(net.servers()) >= 10

    def test_coordinates_on_routers(self):
        net = rocketfuel_isp("as1221-telstra")
        sydney = net.node("RT-sydney")
        assert sydney.attrs["lat"] == pytest.approx(-33.87)
        assert sydney.attrs["city"] == "sydney"

    def test_distances_are_great_circle(self):
        net = rocketfuel_isp("as1221-telstra")
        # Sydney-Melbourne is ~715 km over the ground.
        km = net.link("RT-sydney", "RT-melbourne").distance_km
        assert 650 < km < 800

    def test_capacities_tiered_by_degree(self):
        net = rocketfuel_isp("as1221-telstra", capacity_gbps=100.0)
        spans = [
            link.capacity_gbps
            for link in net.links()
            if not link.u.startswith("SRV") and not link.v.startswith("SRV")
        ]
        assert set(spans) <= {100.0, 200.0, 400.0}
        assert max(spans) > min(spans)  # the map has core and edge spans

    def test_core_flag_matches_capacity_rule(self):
        net = rocketfuel_isp("as1755-ebone", capacity_gbps=10.0)
        for link in net.links():
            if link.u.startswith("SRV") or link.v.startswith("SRV"):
                continue
            tier = bool(net.node(link.u).attrs["core"]) + bool(
                net.node(link.v).attrs["core"]
            )
            assert link.capacity_gbps == 10.0 * (1.0, 2.0, 4.0)[tier]

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="shipped"):
            load_isp_map("as9999-void")


class TestCompose:
    def _two_regions(self, **kwargs):
        regions = [
            RegionSpec("east", "metro-ring", {"n_sites": 3}),
            RegionSpec("west", "metro-ring", {"n_sites": 3}),
        ]
        backbone = RegionSpec("core", "nsfnet", {})
        return compose(regions, backbone=backbone, **kwargs)

    def test_single_connected_network(self):
        net = self._two_regions()
        assert net.is_connected()

    def test_region_metadata_on_every_node(self):
        net = self._two_regions()
        grouped = regions_of(net)
        assert set(grouped) == {"east", "west", "core"}
        assert all(names for names in grouped.values())
        assert net.node("east/RT-0").attrs["region"] == "east"

    def test_gateway_links_counted(self):
        base_links = (
            2 * build_topology("metro-ring", {"n_sites": 3}).link_count
            + build_topology("nsfnet").link_count
        )
        net = self._two_regions(gateways_per_region=2)
        assert net.link_count == base_links + 4

    def test_gateways_spread_round_robin(self):
        net = self._two_regions(gateways_per_region=2)
        # 4 gateway links land on 4 distinct backbone routers.
        attach = {
            link.u if link.u.startswith("core/") else link.v
            for link in net.links()
            if ("east/" in link.u + link.v or "west/" in link.u + link.v)
            and "core/" in link.u + link.v
        }
        assert len(attach) == 4

    def test_copy_topology_preserves_regions(self):
        clone = self._two_regions().copy_topology()
        assert set(regions_of(clone)) == {"east", "west", "core"}

    def test_duplicate_region_names_rejected(self):
        regions = [
            RegionSpec("r", "metro-ring", {"n_sites": 3}),
            RegionSpec("r", "metro-ring", {"n_sites": 3}),
        ]
        with pytest.raises(ConfigurationError, match="duplicate region"):
            compose(regions, backbone=RegionSpec("core", "nsfnet"))

    def test_backbone_label_collision_rejected(self):
        with pytest.raises(ConfigurationError, match="collides"):
            compose(
                [RegionSpec("core", "metro-ring", {"n_sites": 3})],
                backbone=RegionSpec("core", "nsfnet"),
            )

    def test_too_many_gateways_rejected(self):
        with pytest.raises(ConfigurationError, match="gateways"):
            self._two_regions(gateways_per_region=50)

    def test_empty_regions_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            compose([], backbone=RegionSpec("core", "nsfnet"))

    def test_bad_region_name_rejected(self):
        with pytest.raises(ConfigurationError, match="region name"):
            RegionSpec("a/b", "nsfnet")


class TestCompositeFamily:
    def test_diameter_exceeds_any_single_region(self):
        """The composite is the deepest fabric the path cache sees."""
        from repro.network import csr
        from repro.network.routing import HopWeightSpec

        net = build_topology(
            "multi-metro-wan",
            {"n_regions": 3, "sites_per_region": 4, "backbone_routers": 6},
        )
        region = build_topology("metro-mesh", {"n_sites": 4})

        def hop_diameter(graph):
            best = 0
            names = graph.node_names(NodeKind.ROUTER)
            for source in names:
                tree = csr.sssp_csr(graph, source, HopWeightSpec(graph))
                best = max(
                    best,
                    max(int(tree.distance[name]) for name in names),
                )
            return best

        assert hop_diameter(net) > hop_diameter(region)

    def test_gateway_capacity_parameter(self):
        net = build_topology(
            "multi-metro-wan",
            {
                "n_regions": 2,
                "sites_per_region": 3,
                "backbone_routers": 4,
                "gateway_gbps": 123.0,
            },
        )
        gateway_caps = {
            link.capacity_gbps
            for link in net.links()
            if link.u.split("/")[0] != link.v.split("/")[0]
        }
        assert gateway_caps == {123.0}


class TestTopologiesShim:
    def test_shim_matches_registry_build(self):
        """The plain builder and the registry build give one fabric."""
        from repro.network.topology.builders import nsfnet

        assert fingerprint(nsfnet()) == fingerprint(build_topology("nsfnet"))

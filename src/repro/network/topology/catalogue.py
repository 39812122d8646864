"""The built-in topology-family catalogue.

Wraps every builder — the nine original flat functions plus the Waxman,
Clos, and Rocketfuel ISP generators and the multi-region composite — in
a :class:`~repro.network.topology.family.TopologyFamily` with a full
parameter schema (defaults, bounds, docs) and tags.  Every count-valued
parameter has a maximum, chosen so that a build with all of a family's
parameters at their maxima stays under 100,000 nodes.  Importing
:mod:`repro.network.topology` registers all of them; scenarios and the
``repro topologies`` CLI reference families by name.
"""

from __future__ import annotations

from typing import Any, Dict

from ..graph import Network
from . import builders
from .clos import clos
from .compose import RegionSpec, compose
from .family import ParamSpec, TopologyFamily, register_family
from .isp import rocketfuel_isp
from .waxman import waxman

_CAPACITY = ParamSpec(
    "capacity_gbps",
    builders.DEFAULT_CAPACITY_GBPS,
    "per-direction link capacity in Gbps",
    minimum=0.001,
)
_SERVERS = ParamSpec(
    "servers_per_site",
    1,
    "servers attached behind each site",
    minimum=1,
    maximum=8,
)
_SEED = ParamSpec("seed", 0, "drives every random draw", minimum=0)


# ---------------------------------------------------------------------------
# Builder adapters (module-level so everything stays picklable)
# ---------------------------------------------------------------------------

def _build_toy_triangle(params: Dict[str, Any]) -> Network:
    return builders.toy_triangle(capacity_gbps=params["capacity_gbps"])


def _build_metro_ring(params: Dict[str, Any]) -> Network:
    return builders.metro_ring(
        params["n_sites"],
        capacity_gbps=params["capacity_gbps"],
        ring_km=params["ring_km"],
        servers_per_site=params["servers_per_site"],
    )


def _build_metro_mesh(params: Dict[str, Any]) -> Network:
    return builders.metro_mesh(
        params["n_sites"],
        capacity_gbps=params["capacity_gbps"],
        chord_every=params["chord_every"],
        ring_km=params["ring_km"],
        servers_per_site=params["servers_per_site"],
    )


def _build_nsfnet(params: Dict[str, Any]) -> Network:
    return builders.nsfnet(
        capacity_gbps=params["capacity_gbps"],
        servers_per_site=params["servers_per_site"],
    )


def _build_spine_leaf(params: Dict[str, Any]) -> Network:
    return builders.spine_leaf(
        n_spines=params["n_spines"],
        n_leaves=params["n_leaves"],
        servers_per_leaf=params["servers_per_leaf"],
        capacity_gbps=params["capacity_gbps"],
        leaf_uplink_km=params["leaf_uplink_km"],
    )


def _build_dumbbell(params: Dict[str, Any]) -> Network:
    return builders.dumbbell(
        capacity_gbps=params["capacity_gbps"],
        bottleneck_gbps=params["bottleneck_gbps"],
        span_km=params["span_km"],
    )


def _build_scale_free(params: Dict[str, Any]) -> Network:
    return builders.scale_free(
        n_routers=params["n_routers"],
        m_links=params["m_links"],
        seed=params["seed"],
        capacity_gbps=params["capacity_gbps"],
        mean_span_km=params["mean_span_km"],
        servers_per_site=params["servers_per_site"],
    )


def _build_fat_tree(params: Dict[str, Any]) -> Network:
    return builders.fat_tree(
        k=params["k"],
        capacity_gbps=params["capacity_gbps"],
        edge_km=params["edge_km"],
    )


def _build_random_geometric(params: Dict[str, Any]) -> Network:
    return builders.random_geometric(
        params["n_routers"],
        radius=params["radius"],
        seed=params["seed"],
        capacity_gbps=params["capacity_gbps"],
        area_km=params["area_km"],
        servers_per_site=params["servers_per_site"],
    )


def _build_waxman(params: Dict[str, Any]) -> Network:
    return waxman(
        params["n_routers"],
        alpha=params["alpha"],
        beta=params["beta"],
        seed=params["seed"],
        capacity_gbps=params["capacity_gbps"],
        area_km=params["area_km"],
        servers_per_site=params["servers_per_site"],
    )


def _build_clos(params: Dict[str, Any]) -> Network:
    return clos(
        params["n_pods"],
        leaves_per_pod=params["leaves_per_pod"],
        spines_per_pod=params["spines_per_pod"],
        n_cores=params["n_cores"],
        servers_per_leaf=params["servers_per_leaf"],
        oversubscription=params["oversubscription"],
        server_gbps=params["server_gbps"],
        edge_km=params["edge_km"],
    )


def _build_isp_telstra(params: Dict[str, Any]) -> Network:
    return rocketfuel_isp(
        "as1221-telstra",
        capacity_gbps=params["capacity_gbps"],
        servers_per_site=params["servers_per_site"],
    )


def _build_isp_ebone(params: Dict[str, Any]) -> Network:
    return rocketfuel_isp(
        "as1755-ebone",
        capacity_gbps=params["capacity_gbps"],
        servers_per_site=params["servers_per_site"],
    )


def _build_multi_metro_wan(params: Dict[str, Any]) -> Network:
    """Metro meshes stitched over a Waxman WAN backbone."""
    regions = [
        RegionSpec(
            name=f"m{i}",
            family="metro-mesh",
            params={
                "n_sites": params["sites_per_region"],
                "servers_per_site": params["servers_per_site"],
            },
        )
        for i in range(params["n_regions"])
    ]
    backbone = RegionSpec(
        name="wan",
        family="waxman",
        params={
            "n_routers": params["backbone_routers"],
            "alpha": params["waxman_alpha"],
            "beta": params["waxman_beta"],
            "seed": params["seed"],
        },
    )
    return compose(
        regions,
        backbone=backbone,
        gateways_per_region=params["gateways_per_region"],
        gateway_gbps=params["gateway_gbps"],
        gateway_km=params["gateway_km"],
        name=f"multi-metro-wan-{params['n_regions']}",
    )


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

def register_builtin_families() -> None:
    """Register the catalogue (idempotent: replaces on re-import)."""
    families = (
        TopologyFamily(
            name="toy-triangle",
            description="three routers in a triangle, one server each (Fig. 1)",
            builder=_build_toy_triangle,
            schema=(_CAPACITY,),
            tags=("toy",),
        ),
        TopologyFamily(
            name="metro-ring",
            description="metro ring with grooming routers and per-site servers",
            builder=_build_metro_ring,
            schema=(
                ParamSpec("n_sites", 6, "ring sites", minimum=3, maximum=1_000),
                _CAPACITY,
                ParamSpec("ring_km", 120.0, "total ring circumference", minimum=1.0),
                _SERVERS,
            ),
            tags=("metro", "optical"),
        ),
        TopologyFamily(
            name="metro-mesh",
            description="metro ring plus chords — the main evaluation fabric",
            builder=_build_metro_mesh,
            schema=(
                ParamSpec("n_sites", 8, "ring sites", minimum=3, maximum=1_000),
                _CAPACITY,
                ParamSpec(
                    "chord_every",
                    2,
                    "chord spacing along the ring",
                    minimum=1,
                    maximum=1_000,
                ),
                ParamSpec("ring_km", 160.0, "total ring circumference", minimum=1.0),
                _SERVERS,
            ),
            tags=("metro", "optical"),
        ),
        TopologyFamily(
            name="nsfnet",
            description="the 14-node NSFNET reference WAN",
            builder=_build_nsfnet,
            schema=(_CAPACITY, _SERVERS),
            tags=("wan", "reference"),
        ),
        TopologyFamily(
            name="spine-leaf",
            description="all-optical spine-leaf fabric (open challenge #3)",
            builder=_build_spine_leaf,
            schema=(
                ParamSpec("n_spines", 4, "spine switches", minimum=1, maximum=256),
                ParamSpec("n_leaves", 8, "leaf switches", minimum=1, maximum=1_024),
                ParamSpec("servers_per_leaf", 2, "servers per leaf", minimum=1, maximum=64),
                ParamSpec(
                    "capacity_gbps",
                    builders.DEFAULT_CAPACITY_GBPS * 4,
                    "per-direction fabric link capacity in Gbps",
                    minimum=0.001,
                ),
                ParamSpec("leaf_uplink_km", 0.5, "leaf-spine fibre length", minimum=0.0),
            ),
            tags=("datacenter", "optical"),
        ),
        TopologyFamily(
            name="dumbbell",
            description="two router clusters joined by one bottleneck link",
            builder=_build_dumbbell,
            schema=(
                _CAPACITY,
                ParamSpec(
                    "bottleneck_gbps",
                    None,
                    "bottleneck capacity (None = same as capacity_gbps)",
                ),
                ParamSpec("span_km", 50.0, "bottleneck span length", minimum=0.0),
            ),
            tags=("toy", "bottleneck"),
        ),
        TopologyFamily(
            name="scale-free",
            description="Barabási–Albert preferential-attachment router graph",
            builder=_build_scale_free,
            schema=(
                ParamSpec("n_routers", 20, "router count", minimum=2, maximum=10_000),
                ParamSpec(
                    "m_links", 2, "attachments per new router", minimum=1, maximum=16
                ),
                _SEED,
                _CAPACITY,
                ParamSpec("mean_span_km", 30.0, "mean drawn span length", minimum=0.001),
                _SERVERS,
            ),
            tags=("wan", "seeded", "hubs"),
        ),
        TopologyFamily(
            name="scale-free-5k",
            description="Barabási–Albert router graph at N=5000 (scale regime)",
            builder=_build_scale_free,
            schema=(
                ParamSpec("n_routers", 5000, "router count", minimum=2, maximum=10_000),
                ParamSpec(
                    "m_links", 2, "attachments per new router", minimum=1, maximum=16
                ),
                _SEED,
                _CAPACITY,
                ParamSpec("mean_span_km", 30.0, "mean drawn span length", minimum=0.001),
                _SERVERS,
            ),
            tags=("wan", "seeded", "hubs", "scale"),
        ),
        TopologyFamily(
            name="fat-tree",
            description="k-ary fat-tree datacenter fabric (k even)",
            builder=_build_fat_tree,
            schema=(
                ParamSpec("k", 4, "fat-tree arity (even, >= 2)", minimum=2, maximum=64),
                _CAPACITY,
                ParamSpec("edge_km", 0.05, "intra-fabric fibre length", minimum=0.0),
            ),
            tags=("datacenter",),
        ),
        TopologyFamily(
            name="random-geometric",
            description="connected random geometric router graph",
            builder=_build_random_geometric,
            schema=(
                ParamSpec("n_routers", 16, "router count", minimum=2, maximum=2_000),
                ParamSpec("radius", 0.45, "link radius in the unit square", minimum=0.001),
                _SEED,
                _CAPACITY,
                ParamSpec("area_km", 200.0, "physical side of the unit square", minimum=0.001),
                _SERVERS,
            ),
            tags=("wan", "seeded"),
        ),
        TopologyFamily(
            name="waxman",
            description="Waxman random WAN: P(link) = alpha*exp(-d/(beta*L))",
            builder=_build_waxman,
            schema=(
                ParamSpec("n_routers", 24, "PoP count", minimum=2, maximum=2_000),
                ParamSpec("alpha", 0.4, "link-density knob", minimum=0.001, maximum=1.0),
                ParamSpec("beta", 0.25, "distance-decay knob", minimum=0.001, maximum=1.0),
                _SEED,
                _CAPACITY,
                ParamSpec("area_km", 2_000.0, "physical side of the unit square", minimum=1.0),
                _SERVERS,
            ),
            tags=("wan", "seeded"),
        ),
        TopologyFamily(
            name="clos",
            description="3-tier folded Clos with a tunable oversubscription ratio",
            builder=_build_clos,
            schema=(
                ParamSpec("n_pods", 2, "pod count", minimum=1, maximum=64),
                ParamSpec(
                    "leaves_per_pod", 2, "leaf switches per pod", minimum=1, maximum=32
                ),
                ParamSpec(
                    "spines_per_pod", 2, "pod-local spines", minimum=1, maximum=32
                ),
                ParamSpec("n_cores", 2, "core switches", minimum=1, maximum=64),
                ParamSpec(
                    "servers_per_leaf", 2, "servers per leaf", minimum=1, maximum=32
                ),
                ParamSpec(
                    "oversubscription",
                    1.0,
                    "southbound/northbound bandwidth ratio (1.0 = non-blocking)",
                    minimum=1.0,
                    maximum=64.0,
                ),
                ParamSpec("server_gbps", 25.0, "server attachment capacity", minimum=0.001),
                ParamSpec("edge_km", 0.05, "intra-fabric fibre length", minimum=0.0),
            ),
            tags=("datacenter", "oversubscription"),
        ),
        TopologyFamily(
            name="isp-as1221-telstra",
            description="Telstra AS1221 backbone (Rocketfuel-style PoP map)",
            builder=_build_isp_telstra,
            schema=(_CAPACITY, _SERVERS),
            tags=("wan", "isp", "real-world"),
        ),
        TopologyFamily(
            name="isp-as1755-ebone",
            description="Ebone AS1755 backbone (Rocketfuel-style PoP map)",
            builder=_build_isp_ebone,
            schema=(_CAPACITY, _SERVERS),
            tags=("wan", "isp", "real-world"),
        ),
        TopologyFamily(
            name="multi-metro-wan",
            description="metro meshes stitched over a Waxman WAN backbone",
            builder=_build_multi_metro_wan,
            schema=(
                ParamSpec("n_regions", 3, "metro regions", minimum=1, maximum=16),
                ParamSpec(
                    "sites_per_region",
                    6,
                    "ring sites per region",
                    minimum=3,
                    maximum=500,
                ),
                _SERVERS,
                ParamSpec(
                    "backbone_routers",
                    12,
                    "backbone PoP count",
                    minimum=2,
                    maximum=2_000,
                ),
                ParamSpec("waxman_alpha", 0.4, "backbone link density", minimum=0.001, maximum=1.0),
                ParamSpec("waxman_beta", 0.25, "backbone distance decay", minimum=0.001, maximum=1.0),
                _SEED,
                ParamSpec(
                    "gateways_per_region",
                    2,
                    "gateway links per region",
                    minimum=1,
                    maximum=64,
                ),
                ParamSpec("gateway_gbps", 200.0, "gateway link capacity", minimum=0.001),
                ParamSpec("gateway_km", 80.0, "gateway span length", minimum=0.0),
            ),
            tags=("composite", "wan", "metro", "seeded"),
        ),
    )
    for family in families:
        register_family(family, replace=True)

"""The original topology builders (the registry's first nine families).

Each builder returns a fresh :class:`~repro.network.graph.Network` whose
server nodes can host AI models.  The metro topologies mirror the paper's
testbed (ROADM ring/mesh with IP routers and attached servers); ``nsfnet``
provides a standard 14-node wide-area reference; ``spine_leaf`` builds the
all-optical fabric of open challenge #3; ``random_geometric`` generates
arbitrarily large reproducible instances for stress tests.

These predate the family registry and keep their plain-function form —
:mod:`repro.network.topology.catalogue` wraps each one in a
:class:`~repro.network.topology.family.TopologyFamily`, and the package
re-exports them.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from ...errors import ConfigurationError
from ..graph import Network
from ..node import NodeKind

#: Default per-direction link capacity (a 100G coherent wavelength).
DEFAULT_CAPACITY_GBPS = 100.0


def toy_triangle(capacity_gbps: float = DEFAULT_CAPACITY_GBPS) -> Network:
    """Three routers in a triangle, one server each — the Fig. 1 example.

    Servers: ``S-G`` (global candidate), ``S-1``, ``S-2``, ``S-3``.
    """
    net = Network("toy-triangle")
    for i in (1, 2, 3):
        net.add_node(f"R{i}", NodeKind.ROUTER)
    net.add_node("R0", NodeKind.ROUTER)
    for i in (1, 2, 3):
        net.add_node(f"S-{i}", NodeKind.SERVER)
        net.add_link(f"S-{i}", f"R{i}", capacity_gbps, distance_km=1.0)
    net.add_node("S-G", NodeKind.SERVER)
    net.add_link("S-G", "R0", capacity_gbps, distance_km=1.0)
    net.add_link("R0", "R1", capacity_gbps, distance_km=20.0)
    net.add_link("R0", "R2", capacity_gbps, distance_km=25.0)
    net.add_link("R1", "R2", capacity_gbps, distance_km=15.0)
    net.add_link("R2", "R3", capacity_gbps, distance_km=10.0)
    net.add_link("R1", "R3", capacity_gbps, distance_km=18.0)
    return net


def metro_ring(
    n_sites: int = 6,
    *,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    ring_km: float = 120.0,
    servers_per_site: int = 1,
) -> Network:
    """A metro ring with a grooming IP router and servers at every site.

    Structure per site ``i``: ``RT-i`` on the IP ring (every wavelength is
    add/dropped and groomed at each site, as in the paper's testbed, so
    the inter-site IP adjacency runs router-to-router), ``ROADM-i``
    attached to the router (the optical add/drop stage, used by the
    optical-layer modules), and ``SRV-i-j`` servers behind the router.
    """
    if n_sites < 3:
        raise ConfigurationError(f"a ring needs >= 3 sites, got {n_sites}")
    if servers_per_site < 1:
        raise ConfigurationError(
            f"servers_per_site must be >= 1, got {servers_per_site}"
        )
    net = Network(f"metro-ring-{n_sites}")
    span_km = ring_km / n_sites
    for i in range(n_sites):
        net.add_node(f"RT-{i}", NodeKind.ROUTER)
        net.add_node(f"ROADM-{i}", NodeKind.ROADM)
        net.add_link(f"ROADM-{i}", f"RT-{i}", capacity_gbps, distance_km=0.1)
        for j in range(servers_per_site):
            name = f"SRV-{i}-{j}"
            net.add_node(name, NodeKind.SERVER)
            net.add_link(name, f"RT-{i}", capacity_gbps, distance_km=0.05)
    for i in range(n_sites):
        net.add_link(
            f"RT-{i}",
            f"RT-{(i + 1) % n_sites}",
            capacity_gbps,
            distance_km=span_km,
        )
    return net


def metro_mesh(
    n_sites: int = 8,
    *,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    chord_every: int = 2,
    ring_km: float = 160.0,
    servers_per_site: int = 1,
) -> Network:
    """A metro ring augmented with chords — the main evaluation fabric.

    Chords connect site ``i`` to site ``i + n_sites//2`` for every
    ``chord_every``-th site, giving the flexible scheduler alternative
    routes to exploit while keeping diameter small.
    """
    net = metro_ring(
        n_sites,
        capacity_gbps=capacity_gbps,
        ring_km=ring_km,
        servers_per_site=servers_per_site,
    )
    net.name = f"metro-mesh-{n_sites}"
    half = n_sites // 2
    if half >= 2:
        for i in range(0, half, max(1, chord_every)):
            u, v = f"RT-{i}", f"RT-{(i + half) % n_sites}"
            if not net.has_link(u, v):
                net.add_link(u, v, capacity_gbps, distance_km=ring_km / 3.5)
    return net


#: NSFNET 14-node reference topology: (u, v, distance_km) spans.
_NSFNET_SPANS: Sequence[Tuple[int, int, float]] = (
    (0, 1, 1100), (0, 2, 1600), (0, 7, 2800), (1, 2, 600), (1, 3, 1000),
    (2, 5, 2000), (3, 4, 600), (3, 10, 2400), (4, 5, 1100), (4, 6, 800),
    (5, 9, 1200), (5, 13, 2000), (6, 7, 700), (7, 8, 700), (8, 9, 900),
    (8, 11, 500), (8, 12, 500), (10, 11, 800), (10, 13, 800), (11, 12, 300),
    (12, 13, 300),
)


def nsfnet(
    *,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    servers_per_site: int = 1,
) -> Network:
    """The 14-node NSFNET reference WAN with a server behind every router."""
    net = Network("nsfnet")
    for i in range(14):
        net.add_node(f"RT-{i}", NodeKind.ROUTER)
        for j in range(servers_per_site):
            name = f"SRV-{i}-{j}"
            net.add_node(name, NodeKind.SERVER)
            net.add_link(name, f"RT-{i}", capacity_gbps, distance_km=0.05)
    for u, v, km in _NSFNET_SPANS:
        net.add_link(f"RT-{u}", f"RT-{v}", capacity_gbps, distance_km=float(km))
    return net


def spine_leaf(
    n_spines: int = 4,
    n_leaves: int = 8,
    servers_per_leaf: int = 2,
    *,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS * 4,
    leaf_uplink_km: float = 0.5,
) -> Network:
    """All-optical spine-leaf fabric (open challenge #3).

    Every leaf connects to every spine (full bipartite), servers hang off
    the leaves.  Spines are optical and cannot aggregate; leaves groom and
    can aggregate.
    """
    if n_spines < 1 or n_leaves < 1:
        raise ConfigurationError("spine_leaf needs >= 1 spine and >= 1 leaf")
    net = Network(f"spine-leaf-{n_spines}x{n_leaves}")
    for s in range(n_spines):
        net.add_node(f"SP-{s}", NodeKind.SPINE, aggregation_capable=False)
    for l in range(n_leaves):
        net.add_node(f"LF-{l}", NodeKind.LEAF)
        for s in range(n_spines):
            net.add_link(
                f"LF-{l}", f"SP-{s}", capacity_gbps, distance_km=leaf_uplink_km
            )
        for j in range(servers_per_leaf):
            name = f"SRV-{l}-{j}"
            net.add_node(name, NodeKind.SERVER)
            net.add_link(name, f"LF-{l}", capacity_gbps, distance_km=0.05)
    return net


def dumbbell(
    *,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    bottleneck_gbps: Optional[float] = None,
    span_km: float = 50.0,
) -> Network:
    """Two router clusters joined by one bottleneck link.

    Useful in tests: the bottleneck makes capacity exhaustion and the
    fixed scheduler's bandwidth waste easy to provoke deterministically.
    """
    net = Network("dumbbell")
    bottleneck = bottleneck_gbps if bottleneck_gbps is not None else capacity_gbps
    for side in ("L", "R"):
        net.add_node(f"RT-{side}", NodeKind.ROUTER)
        for j in range(2):
            name = f"SRV-{side}-{j}"
            net.add_node(name, NodeKind.SERVER)
            net.add_link(name, f"RT-{side}", capacity_gbps, distance_km=0.05)
    net.add_link("RT-L", "RT-R", bottleneck, distance_km=span_km)
    return net


def scale_free(
    n_routers: int = 20,
    *,
    m_links: int = 2,
    seed: int = 0,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    mean_span_km: float = 30.0,
    servers_per_site: int = 1,
) -> Network:
    """A Barabási–Albert preferential-attachment router graph.

    Heavy-tailed degree distributions concentrate traffic on a few hub
    routers, the communication-bottleneck regime of scale-free networks
    that the metro meshes never exhibit.  Each new router attaches to
    ``m_links`` existing routers with probability proportional to their
    current degree; every router hosts ``servers_per_site`` servers.
    """
    if n_routers < 2:
        raise ConfigurationError(f"need >= 2 routers, got {n_routers}")
    if m_links < 1:
        raise ConfigurationError(f"m_links must be >= 1, got {m_links}")
    rng = random.Random(seed)
    net = Network(f"scale-free-{n_routers}")
    for i in range(n_routers):
        net.add_node(f"RT-{i}", NodeKind.ROUTER)
        for j in range(servers_per_site):
            name = f"SRV-{i}-{j}"
            net.add_node(name, NodeKind.SERVER)
            net.add_link(name, f"RT-{i}", capacity_gbps, distance_km=0.05)
    # Repeated-node list: sampling from it is degree-proportional.
    attachment: List[int] = []
    net.add_link("RT-0", "RT-1", capacity_gbps, distance_km=mean_span_km)
    attachment.extend((0, 1))
    for i in range(2, n_routers):
        targets: List[int] = []
        while len(targets) < min(m_links, i):
            pick = rng.choice(attachment)
            if pick not in targets:
                targets.append(pick)
        for t in targets:
            km = max(1.0, rng.expovariate(1.0 / mean_span_km))
            net.add_link(f"RT-{i}", f"RT-{t}", capacity_gbps, distance_km=km)
            attachment.append(t)
        attachment.extend([i] * len(targets))
    return net


def fat_tree(
    k: int = 4,
    *,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    edge_km: float = 0.05,
) -> Network:
    """A k-ary fat-tree datacenter fabric (k even, k >= 2).

    ``(k/2)^2`` core spines, ``k`` pods of ``k/2`` aggregation plus
    ``k/2`` edge leaves, and ``k/2`` servers per edge leaf.  Aggregation
    and edge switches groom (LEAF kind); cores are optical spines.
    """
    if k < 2 or k % 2 != 0:
        raise ConfigurationError(f"fat_tree needs an even k >= 2, got {k}")
    half = k // 2
    net = Network(f"fat-tree-{k}")
    for c in range(half * half):
        net.add_node(f"CORE-{c}", NodeKind.SPINE, aggregation_capable=False)
    for p in range(k):
        for a in range(half):
            agg = f"AGG-{p}-{a}"
            net.add_node(agg, NodeKind.LEAF)
            # Core group ``a`` serves aggregation index ``a`` in every pod.
            for c in range(half):
                net.add_link(
                    agg, f"CORE-{a * half + c}", capacity_gbps, distance_km=edge_km
                )
        for e in range(half):
            edge = f"EDGE-{p}-{e}"
            net.add_node(edge, NodeKind.LEAF)
            for a in range(half):
                net.add_link(edge, f"AGG-{p}-{a}", capacity_gbps, distance_km=edge_km)
            for s in range(half):
                name = f"SRV-{p}-{e}-{s}"
                net.add_node(name, NodeKind.SERVER)
                net.add_link(name, edge, capacity_gbps, distance_km=0.01)
    return net


def random_geometric(
    n_routers: int,
    *,
    radius: float = 0.45,
    seed: int = 0,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
    area_km: float = 200.0,
    servers_per_site: int = 1,
) -> Network:
    """A connected random geometric graph of routers with attached servers.

    Routers are placed uniformly in the unit square; any two within
    ``radius`` are linked with a distance proportional to their Euclidean
    separation.  A deterministic chain pass guarantees connectivity.
    """
    if n_routers < 2:
        raise ConfigurationError(f"need >= 2 routers, got {n_routers}")
    rng = random.Random(seed)
    net = Network(f"random-geometric-{n_routers}")
    points: List[Tuple[float, float]] = []
    for i in range(n_routers):
        x, y = rng.random(), rng.random()
        points.append((x, y))
        net.add_node(f"RT-{i}", NodeKind.ROUTER, x=x, y=y)
        for j in range(servers_per_site):
            name = f"SRV-{i}-{j}"
            net.add_node(name, NodeKind.SERVER)
            net.add_link(name, f"RT-{i}", capacity_gbps, distance_km=0.05)

    def dist_km(a: int, b: int) -> float:
        (x1, y1), (x2, y2) = points[a], points[b]
        return max(0.5, math.hypot(x1 - x2, y1 - y2) * area_km)

    for a in range(n_routers):
        for b in range(a + 1, n_routers):
            (x1, y1), (x2, y2) = points[a], points[b]
            if math.hypot(x1 - x2, y1 - y2) <= radius:
                net.add_link(
                    f"RT-{a}", f"RT-{b}", capacity_gbps, distance_km=dist_km(a, b)
                )
    # Guarantee connectivity with a sorted-by-x chain.
    order = sorted(range(n_routers), key=lambda i: points[i])
    for a, b in zip(order, order[1:]):
        if not net.has_link(f"RT-{a}", f"RT-{b}"):
            net.add_link(
                f"RT-{a}", f"RT-{b}", capacity_gbps, distance_km=dist_km(a, b)
            )
    return net

"""Shared-risk link groups derived from topology geography.

Real WAN outages are correlated: fibre spans sharing a conduit (or a
bridge, or a metro duct) are cut *together* by one backhoe.  This module
derives that structure from the coordinates ISP maps already carry:
nodes are clustered by great-circle proximity, and every inter-switch
link is assigned to exactly one group — the conduit bundle leaving its
lexicographically-first endpoint's cluster.  One SRLG failure event then
downs every member span at once.

The derivation is a pure function of the network (greedy clustering over
sorted node names, haversine distances), so the groups — and hence the
fault timeline drawn over them — are byte-identical in any process.
Topologies without coordinates degrade gracefully: every node becomes
its own cluster, so each group holds the parallel spans between one pair
of adjacent devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..network.graph import Network


@dataclass(frozen=True)
class SharedRiskGroup:
    """One conduit bundle: a named set of links that fail together.

    Attributes:
        name: stable group identifier (timeline event subject).
        members: the grouped links as sorted ``(u, v)`` pairs.
    """

    name: str
    members: Tuple[Tuple[str, str], ...]


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * 6371.0 * math.asin(math.sqrt(a))


def _coordinates(network: Network) -> Dict[str, Tuple[float, float]]:
    """(lat, lon) per node, for nodes that carry both attributes."""
    coords: Dict[str, Tuple[float, float]] = {}
    for node in network.nodes():
        lat = node.attrs.get("lat")
        lon = node.attrs.get("lon")
        if isinstance(lat, (int, float)) and isinstance(lon, (int, float)):
            coords[node.name] = (float(lat), float(lon))
    return coords


def cluster_nodes(network: Network, radius_km: float) -> Dict[str, str]:
    """Greedy geographic clustering: node name -> cluster anchor name.

    Nodes are visited in sorted order; each joins the first existing
    cluster whose *anchor* lies within ``radius_km``, else it anchors a
    new cluster.  Anchor-distance (rather than centroid) clustering
    keeps the assignment a pure function of the sorted visit order.
    Nodes without coordinates anchor themselves.
    """
    coords = _coordinates(network)
    anchors: List[str] = []
    assignment: Dict[str, str] = {}
    for name in sorted(node.name for node in network.nodes()):
        position = coords.get(name)
        if position is None:
            assignment[name] = name
            continue
        for anchor in anchors:
            if _haversine_km(*position, *coords[anchor]) <= radius_km:
                assignment[name] = anchor
                break
        else:
            anchors.append(name)
            assignment[name] = name
    return assignment


def derive_srlgs(
    network: Network, radius_km: float
) -> Tuple[SharedRiskGroup, ...]:
    """The network's shared-risk link groups, sorted by group name.

    Every inter-switch link lands in exactly one group — keyed by the
    cluster of its lexicographically-first endpoint — so overlapping
    group outages can never double-fail a span.  Groups are named
    ``conduit:<anchor>`` after their cluster anchor node.
    """
    assignment = cluster_nodes(network, radius_km)
    grouped: Dict[str, List[Tuple[str, str]]] = {}
    for u, v in network.inter_switch_links():
        anchor = assignment[min(u, v)]
        grouped.setdefault(f"conduit:{anchor}", []).append((u, v))
    return tuple(
        SharedRiskGroup(name=name, members=tuple(sorted(members)))
        for name, members in sorted(grouped.items())
    )

"""Network substrate: topology, capacities, and graph algorithms.

This package models the data plane the paper's testbed provides physically:
ROADM/IP-router/server nodes connected by capacitated fibre links.  On top
of the topology it implements the routing machinery both schedulers need —
one CSR routing kernel behind an epoch-keyed path cache (shortest paths,
Yen's k-shortest paths, terminal trees on the metric closure: the MST
construction of the paper's flexible scheduler), and the per-procedure
auxiliary graphs whose weights blend bandwidth consumption with latency.
"""

from .auxiliary import AuxiliaryGraphBuilder, AuxiliaryWeights
from .graph import Network
from .link import Link, LinkLedger, Reservation
from .node import Node, NodeKind
from .paths import (
    PathResult,
    TreeResult,
    path_latency_ms,
)
from .routing import (
    CacheStats,
    HopWeightSpec,
    LatencyWeightSpec,
    PathCache,
    ShortestPathTree,
    get_cache,
    peek_cache,
)
from .state import LinkUtilisation, NetworkState
from .topology import (
    dumbbell,
    fat_tree,
    metro_mesh,
    metro_ring,
    nsfnet,
    random_geometric,
    scale_free,
    spine_leaf,
    toy_triangle,
)

__all__ = [
    "AuxiliaryGraphBuilder",
    "AuxiliaryWeights",
    "Network",
    "Link",
    "LinkLedger",
    "Reservation",
    "Node",
    "NodeKind",
    "PathResult",
    "TreeResult",
    "path_latency_ms",
    "CacheStats",
    "HopWeightSpec",
    "LatencyWeightSpec",
    "PathCache",
    "ShortestPathTree",
    "get_cache",
    "peek_cache",
    "LinkUtilisation",
    "NetworkState",
    "dumbbell",
    "fat_tree",
    "metro_mesh",
    "metro_ring",
    "nsfnet",
    "random_geometric",
    "scale_free",
    "spine_leaf",
    "toy_triangle",
]

"""Network substrate: topology, capacities, and graph algorithms.

This package models the data plane the paper's testbed provides physically:
ROADM/IP-router/server nodes connected by capacitated fibre links.  On top
of the topology it implements the routing machinery both schedulers need —
shortest paths (Dijkstra), k-shortest paths (Yen), minimum spanning trees
(Prim/Kruskal), terminal trees on the metric closure (the MST construction
of the paper's flexible scheduler), and the per-procedure auxiliary graphs
whose weights blend bandwidth consumption with latency.
"""

from .auxiliary import AuxiliaryGraphBuilder, AuxiliaryWeights
from .graph import Network
from .link import Link, MutationEpoch, Reservation
from .node import Node, NodeKind
from .paths import (
    PathResult,
    TreeResult,
    dijkstra,
    k_shortest_paths,
    minimum_spanning_tree,
    path_latency_ms,
    terminal_tree,
)
from .routing import (
    CacheStats,
    HopWeightSpec,
    LatencyWeightSpec,
    PathCache,
    ShortestPathTree,
    get_cache,
    multi_source_distances,
    peek_cache,
    sssp,
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
    "Reservation",
    "Node",
    "NodeKind",
    "PathResult",
    "TreeResult",
    "dijkstra",
    "k_shortest_paths",
    "minimum_spanning_tree",
    "path_latency_ms",
    "terminal_tree",
    "MutationEpoch",
    "CacheStats",
    "HopWeightSpec",
    "LatencyWeightSpec",
    "PathCache",
    "ShortestPathTree",
    "get_cache",
    "multi_source_distances",
    "peek_cache",
    "sssp",
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

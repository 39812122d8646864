"""Exact Steiner tree cost via the Dreyfus–Wagner dynamic program.

The flexible scheduler's terminal tree (MST on the metric closure) is the
classic 2(1 − 1/k)-approximation of the minimum Steiner tree.  This
module computes the *exact* optimum, which lets experiments quantify the
heuristic's optimality gap and lets property tests verify the textbook
bound — the kind of ground truth a physical testbed cannot provide.

Complexity is O(3^k·n + 2^k·n²) for ``k`` terminals on ``n`` nodes, so
it is a validation tool for small terminal sets (k ≤ ~10), not a
scheduler.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

from ..errors import ConfigurationError, NoPathError
from .graph import Network
from . import routing


def steiner_tree_cost(
    network: Network,
    terminals: Sequence[str],
    spec: Optional[Any] = None,
) -> float:
    """Exact minimum Steiner tree cost connecting ``terminals``.

    Shortest-path costs come from the network's path cache (the CSR
    kernel), so they are the distances the schedulers' trees are built
    from.

    Args:
        network: the topology (undirected edge cost =
            ``min(weight(u,v), weight(v,u))`` is implied by using the
            weight symmetrically; pass a symmetric weight for exactness).
        terminals: nodes the tree must connect (duplicates ignored).
        spec: weight spec (see :mod:`repro.network.routing`); defaults
            to :class:`~repro.network.routing.LatencyWeightSpec`.

    Raises:
        ConfigurationError: with more than 12 terminals (complexity wall).
        NoPathError: if the terminals are not mutually reachable.
        TopologyError: if a terminal is not a node of ``network``.
    """
    if spec is None:
        spec = routing.LatencyWeightSpec(network)
    terms = list(dict.fromkeys(terminals))
    for t in terms:
        network.node(t)
    if len(terms) <= 1:
        return 0.0
    if len(terms) == 2:
        cache = routing.get_cache(network)
        return cache.shortest_path(terms[0], terms[1], spec).weight
    if len(terms) > 12:
        raise ConfigurationError(
            f"Dreyfus-Wagner is exponential in terminals; got {len(terms)}"
        )

    root, rest = terms[0], terms[1:]
    k = len(rest)
    names = network.node_names()
    index_of = {name: i for i, name in enumerate(names)}
    n = len(names)

    # Shortest-path costs from every node (sources = all nodes is n
    # SSSPs; fine at validation scale).
    trees = routing.get_cache(network).batched_sssp(names, spec)
    dist = [[trees[u].distance_to(v) for v in names] for u in names]

    INF = math.inf
    size = 1 << k
    # dp[mask][v]: optimal tree connecting {rest[i] : i in mask} ∪ {v}.
    dp = [[INF] * n for _ in range(size)]
    for i, t in enumerate(rest):
        ti = index_of[t]
        row = dp[1 << i]
        for v in range(n):
            row[v] = dist[ti][v]

    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue  # singletons already seeded
        row = dp[mask]
        # Merge step: split the subset at v.
        sub = (mask - 1) & mask
        low = mask & (-mask)
        while sub:
            if sub & low:  # canonical split (avoid double enumeration)
                other = mask ^ sub
                a, b = dp[sub], dp[other]
                for v in range(n):
                    combined = a[v] + b[v]
                    if combined < row[v]:
                        row[v] = combined
            sub = (sub - 1) & mask
        # Relax step: attach v to the tree via the cheapest path from any
        # attachment point u.  ``dist`` is already the shortest-path
        # metric, so one pass over a snapshot of the merged values is
        # exact (no iterative relaxation needed).
        merged = list(row)
        for v in range(n):
            best = merged[v]
            for u in range(n):
                base = merged[u]
                if math.isinf(base):
                    continue
                candidate = base + dist[u][v]
                if candidate < best:
                    best = candidate
            row[v] = best

    answer = dp[size - 1][index_of[root]]
    if math.isinf(answer):
        raise NoPathError(root, rest[0], "terminals are not mutually reachable")
    return answer

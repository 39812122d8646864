"""Array-native Dijkstra/SSSP, Yen, and the incremental-repair check.

The relaxation loop here is the object kernel's
(:func:`repro.network.paths.dijkstra` / :func:`repro.network.routing.sssp`)
transliterated onto CSR index arrays: same heap entries ``(distance,
tick, node)`` with the same monotone tick sequence, same ``1e-15``
relaxation epsilon, same neighbour iteration order (CSR rows are built
in adjacency insertion order).  The object kernel's per-edge
infinite-weight skip is subsumed by the relaxation test and its
negative-weight raise moves to
:func:`~repro.network.csr.weights.weight_array`, which only ever hands
this loop values in ``[0, +inf]`` (a +inf edge can never beat an
incumbent).  Because ties are broken by the tick counter and
both kernels push in the same order with the same float64 values, the
settled order, distances, and predecessors are *bit-identical* — which
is what lets the object kernel serve as the reference oracle the
equivalence tests and benchmarks check this one against.

The incremental-repair primitive is :func:`tree_unaffected`: a
change-cut classification over the edges whose weight moved between two
weight arrays.  It keeps a cached tree only when every changed edge
provably cannot alter the tree's distances or predecessors (a weight
increase off the shortest-path forest, or a decrease that still loses
to the incumbent distance by more than the relaxation epsilon); anything
ambiguous — a changed tree edge, a decrease within the epsilon of the
incumbent — reports "recompute".  Warm-starting Dijkstra from the old
tree could not honour the tick-based tie-breaking contract, so repair
trades a cheap O(changed) check plus an occasional fast array recompute
for provable byte-identity.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

from ...errors import NoPathError, TopologyError
from ..graph import Network
from ..paths import (
    PathResult,
    ShortestPathTree,
    TreeResult,
    k_shortest_paths as _yen,
    tree_from_metric_closure,
)
from .snapshot import CsrSnapshot, get_snapshot
from .weights import weight_array

_INF = math.inf


def _run(
    indptr: List[int],
    indices: List[int],
    weights: List[float],
    source_i: int,
    target_i: int = -1,
    ban_nodes: Optional[bytearray] = None,
    ban_edges: Optional[set] = None,
    targets: Optional[bytearray] = None,
    n_targets: int = 0,
) -> Tuple[List[float], List[int], List[int], bytearray]:
    """The shared relaxation loop over CSR arrays.

    Returns ``(dist, prev, order, settled)`` with ``order`` listing node
    indices in first-discovery order (source first) — the same order the
    object kernel inserts keys into its result dicts.

    ``targets``/``n_targets`` allow a multi-target early exit: the loop
    stops once every flagged node is settled.  Settled entries are
    final, so extracted target paths are identical to a full run's —
    but the returned arrays cover only the settled region, so full-tree
    callers must not pass targets.
    """
    n = len(indptr) - 1
    dist = [_INF] * n
    prev = [-1] * n
    settled = bytearray(n)
    order = [source_i]
    dist[source_i] = 0.0
    frontier: List[Tuple[float, int, int]] = [(0.0, 0, source_i)]
    tick = 1
    pop = heapq.heappop
    push = heapq.heappush
    banned = ban_nodes is not None
    # weight_array guarantees entries in [0, +inf] (it refuses to lower
    # anything negative), so the object kernel's isinf() skip and
    # negative-weight raise are both subsumed by the relaxation test:
    # a +inf edge yields nd = inf, which never beats any incumbent.
    while frontier:
        d, _t, u = pop(frontier)
        if settled[u]:
            continue
        settled[u] = 1
        if u == target_i:
            break
        if n_targets and targets[u]:
            n_targets -= 1
            if not n_targets:
                break
        row_end = indptr[u + 1]
        if banned:
            for e in range(indptr[u], row_end):
                v = indices[e]
                if settled[v]:
                    continue
                if e in ban_edges or ban_nodes[v] or ban_nodes[u]:
                    continue
                nd = d + weights[e]
                if nd < dist[v] - 1e-15:
                    if prev[v] < 0:
                        order.append(v)
                    dist[v] = nd
                    prev[v] = u
                    push(frontier, (nd, tick, v))
                    tick += 1
        else:
            for e in range(indptr[u], row_end):
                v = indices[e]
                if settled[v]:
                    continue
                nd = d + weights[e]
                if nd < dist[v] - 1e-15:
                    if prev[v] < 0:
                        order.append(v)
                    dist[v] = nd
                    prev[v] = u
                    push(frontier, (nd, tick, v))
                    tick += 1
    return dist, prev, order, settled


def _source_index(snapshot: CsrSnapshot, source: str) -> int:
    index = snapshot.index.get(source)
    if index is None:
        # Raise the same TopologyError the object kernel's node lookup
        # does (the snapshot covers every node of its version).
        snapshot.network.node(source)
        raise TopologyError(f"node {source!r} missing from CSR snapshot")
    return index


def sssp_tree(
    snapshot: CsrSnapshot, source: str, weights: List[float]
) -> ShortestPathTree:
    """Full single-source tree over the snapshot under a weight list."""
    source_i = _source_index(snapshot, source)
    dist, prev, order, _settled = _run(
        snapshot.indptr, snapshot.indices, weights, source_i
    )
    names = snapshot.names
    distance = {}
    for i in order:
        distance[names[i]] = dist[i]
    previous = {}
    for i in order[1:]:
        previous[names[i]] = names[prev[i]]
    return ShortestPathTree(source=source, distance=distance, previous=previous)


def _extract_path(
    snapshot: CsrSnapshot,
    source: str,
    destination: str,
    dist: List[float],
    prev: List[int],
    settled: bytearray,
    target_i: int,
) -> PathResult:
    if dist[target_i] == _INF or not settled[target_i]:
        raise NoPathError(source, destination)
    chain = [target_i]
    while prev[chain[-1]] >= 0:
        chain.append(prev[chain[-1]])
    names = snapshot.names
    nodes = tuple(names[i] for i in reversed(chain))
    return PathResult(nodes=nodes, weight=dist[target_i])


# ---------------------------------------------------------------------------
# Incremental repair
# ---------------------------------------------------------------------------

def tree_unaffected(
    snapshot: CsrSnapshot,
    tree: ShortestPathTree,
    old_weights,
    new_weights,
) -> bool:
    """Whether a cached tree provably survives a weight-array delta.

    True means re-running SSSP under ``new_weights`` yields the same
    distances and predecessors as ``tree`` (computed under
    ``old_weights``); the entry may be kept with its array swapped.
    False means "recompute" — it never claims the tree changed, only
    that identity cannot be proven, so over-reporting is safe.

    Per changed directed edge ``(u, v)``:

    * edges into the source are never relaxed — irrelevant;
    * a weight *increase* matters only if ``(u, v)`` is a tree edge
      (``previous[v] == u``): off-forest increases make failed
      relaxations fail harder, and transiently-successful ones are
      overridden exactly as before;
    * a weight *decrease* is safe only when the new candidate
      ``dist[u] + w`` still loses to the incumbent ``dist[v]`` by more
      than the relaxation epsilon; within the epsilon the relaxation's
      outcome depends on arrival order, which a check cannot replay.
    """
    import numpy as np

    changed = np.flatnonzero(old_weights != new_weights)
    if changed.size == 0:
        return True
    names = snapshot.names
    heads = snapshot.heads
    tails = snapshot.indices
    distance = tree.distance
    previous = tree.previous
    source = tree.source
    for e in changed.tolist():
        v_name = names[tails[e]]
        if v_name == source:
            continue
        u_name = names[heads[e]]
        if new_weights[e] > old_weights[e]:
            if previous.get(v_name) == u_name:
                return False
            continue
        du = distance.get(u_name)
        if du is None:
            continue
        dv = distance.get(v_name, _INF)
        if du + new_weights[e] <= dv + 1e-15:
            return False
    return True


# ---------------------------------------------------------------------------
# Uncached entry points (unshareable specs bypass the path cache)
# ---------------------------------------------------------------------------

def _snapshot_and_weights(network: Network, spec) -> Tuple[CsrSnapshot, list]:
    """The refreshed snapshot and lowered weight list for a spec."""
    snapshot = get_snapshot(network)
    return snapshot, weight_array(snapshot, spec.cache_token()).tolist()


def sssp_csr(network: Network, source: str, spec) -> ShortestPathTree:
    """Uncached CSR single-source tree."""
    snapshot, weights = _snapshot_and_weights(network, spec)
    return sssp_tree(snapshot, source, weights)


def terminal_tree_csr(
    network: Network, root: str, terminals: Sequence[str], spec
) -> TreeResult:
    """Uncached CSR terminal tree, byte-identical to ``paths.terminal_tree``.

    One array SSSP per terminal (except the last) replaces the object
    construction's per-pair Dijkstras; the closure feeds the shared
    :func:`~repro.network.paths.tree_from_metric_closure` finisher.
    """
    terminal_list = list(dict.fromkeys([root, *terminals]))
    if len(terminal_list) == 1:
        return TreeResult(root=root, parent={}, weight=0.0)
    snapshot, weights = _snapshot_and_weights(network, spec)
    index = snapshot.index
    closure = {}
    for i, a in enumerate(terminal_list[:-1]):
        remaining = terminal_list[i + 1 :]
        targets = bytearray(snapshot.n)
        for b in remaining:
            targets[_source_index(snapshot, b)] = 1
        dist, prev, _order, settled = _run(
            snapshot.indptr,
            snapshot.indices,
            weights,
            _source_index(snapshot, a),
            targets=targets,
            n_targets=len(remaining),
        )
        for b in remaining:
            closure[(a, b)] = _extract_path(
                snapshot, a, b, dist, prev, settled, index[b]
            )
    # The finisher only reads edge weights for its final sum; the array
    # view returns the same float64s as the scalar weight fn without the
    # per-edge link scans.
    return tree_from_metric_closure(
        root, terminal_list, closure, array_edge_weight(snapshot, weights)
    )


def array_search(snapshot: CsrSnapshot, weights: List[float]):
    """A Yen ``search`` hook backed by the array kernel.

    Each call is an early-exit point-to-point query, bit-identical to
    :func:`~repro.network.paths.dijkstra` under the same bans.  Bans
    arrive as the object algorithm's name/edge sets; they are interned
    to index form per spur search (spur path lengths dwarf the interning
    cost).
    """
    index = snapshot.index
    edge_pos = snapshot.edge_pos

    def search(src, dst, banned_edges, banned_nodes):
        source_i = _source_index(snapshot, src)
        target_i = _source_index(snapshot, dst)
        if source_i == target_i:
            return PathResult(nodes=(src,), weight=0.0)
        ban_nodes = ban_edges = None
        if banned_edges or banned_nodes:
            ban_nodes = bytearray(snapshot.n)
            for name in banned_nodes:
                ban_nodes[index[name]] = 1
            ban_edges = set()
            for u, v in banned_edges:
                position = edge_pos.get((u, v))
                if position is not None:
                    ban_edges.add(position)
        dist, prev, _order, settled = _run(
            snapshot.indptr,
            snapshot.indices,
            weights,
            source_i,
            target_i,
            ban_nodes,
            ban_edges,
        )
        return _extract_path(snapshot, src, dst, dist, prev, settled, target_i)

    return search


def array_edge_weight(snapshot: CsrSnapshot, weights: List[float]):
    """A scalar ``weight(u, v)`` view over a weight list (for root costs)."""
    edge_pos = snapshot.edge_pos

    def weight(u: str, v: str) -> float:
        return weights[edge_pos[(u, v)]]

    return weight


def k_shortest_paths_csr(
    network: Network, source: str, destination: str, k: int, spec
) -> List[PathResult]:
    """Uncached CSR Yen: the object control flow over array searches."""
    snapshot, weights = _snapshot_and_weights(network, spec)
    return _yen(
        network,
        source,
        destination,
        k,
        array_edge_weight(snapshot, weights),
        search=array_search(snapshot, weights),
    )

"""Array-native Dijkstra/SSSP, Yen, and the incremental-repair check.

The relaxation loop :func:`_run` is the reference oracle's object-graph
heap loop (``sssp`` in ``tests/oracle.py``, kept out of the package)
transliterated onto CSR index arrays: same heap entries ``(distance,
tick, node)`` with the same monotone tick sequence, same ``1e-15``
relaxation epsilon, same neighbour iteration order (CSR rows are built
in adjacency insertion order).  The oracle's per-edge infinite-weight
skip is subsumed by the relaxation test and its negative-weight raise
moves to :func:`~repro.network.csr.weights.weight_array`, which only
ever hands this loop values in ``[0, +inf]`` (a +inf edge can never
beat an incumbent).  Because ties are broken by the tick counter and
both loops push in the same order with the same float64 values, the
settled order, distances, and predecessors are *bit-identical* — which
is what lets the oracle serve as the reference the equivalence tests
and benchmarks check this kernel against.

Tie-break contract
------------------
What ``_run`` returns for a source ``s``, stated without the heap, so
that a second solver can reproduce it (``rank[u]`` is ``u``'s position
in settle order, a relaxation's tick orders by ``(rank[u], e)`` with
``e`` the CSR edge position, and a candidate is ``D[u] + w[e]`` in
IEEE float64):

* ``D[v]`` is the least candidate over ``v``'s in-edges — provided no
  candidate ``c != D[v]`` has ``c - 1e-15 <= D[v]``.  Such a near-tie
  makes ``_run``'s answer depend on the order candidates arrive in; no
  rule below covers it.
* ``prev[v]`` is the head of the exact-tie in-edge (``c == D[v]``
  bitwise) with the smallest tick among heads settled before ``v``:
  the first exact candidate wins and later equal ones fail the
  epsilon test.  So when ``v`` has one exact tie and its head is
  strictly closer (``D[u] < D[v]``, hence settled first), ``prev[v]``
  is that head, read off the edge without any settle order.
* Settle order is ``(D[v], tick of v's winning push)``, the source
  first.  Settle order and ``prev`` define each other within a class
  of equal distances (zero-weight edges, hop weights); their fixpoint
  is unique.
* ``order`` is the source followed by the reached nodes sorted by
  their first relaxation with a finite candidate, ``(rank[u], e)``.

Dispatch
--------
:func:`_solve` picks the solver from observable input only.  Snapshots
with fewer than :data:`VECTOR_MIN_EDGES` directed edges run ``_run``.
Larger ones try :func:`_vector_solve`: label-correcting numpy sweeps
for ``D``, then the contract above rebuilt in vectorised form.  When
every reached node has one exact tie from a strictly closer head,
``prev`` is read off those edges and the settle ranks wait until a
tree's mapping views first read ``order`` (if their fixpoint then
gives up, the order is ``_run``'s own).  Only ambiguous ties (several
exact ties into a node, or a tie at equal distance: zero-weight edges,
hop weights) build the ranks in the solve, by a fixpoint over the
equal-distance classes only.  The solve hands the source to
``_run`` on a near-tie, or when its sweeps or rank passes exceed one
per :data:`VECTOR_EDGES_PER_SWEEP` edges.  Sweeps grow with hop depth
while ``_run`` grows with edge count, so the budget caps what a give-up
wastes at about half a ``_run``.  Give-ups are counted as
``csr.vector_fallback`` and solves that needed ranks as
``csr.vector_ranked`` when telemetry is on.  Measured per source under
aux weights, best of 5, on a 2-vCPU VM: ``_run`` and the vectorised
solve called directly (ms), the sweeps that solve needs, and what the
dispatch delivers against ``_run`` (BASELINES.md has the full table;
of these rows only fat-tree needs ranks in the solve):

=========================  =====  =====  ========  ======  ==========
family                         m   _run  vector    sweeps  dispatched
=========================  =====  =====  ========  ======  ==========
scale-free N=20              114  0.047  0.092          8  ``_run``
scale-free N=100             594  0.279  0.151         10  ``_run``
fat-tree k=8                 768  0.351  0.310          7  ``_run``
scale-free N=200            1194  0.645  0.213         11  3.01x
waxman N=100                1546  0.544  0.194          9  2.83x
scale-free N=1000 (hub)     5994  4.463  0.459         12  8.54x
scale-free N=5000          29994  30.32  2.317         15  13.24x
metro-mesh 200 sites        1300  0.859  gives up      55  0.71x
ring N=1000                 2000  1.101  gives up     501  0.68x
=========================  =====  =====  ========  ======  ==========

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
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ... import obs
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
_INT64_LIMIT = 2**63

#: Snapshots with at least this many directed edges try the vectorised
#: solve first; smaller ones always run :func:`_run`.  See the measured
#: crossover table in the module docstring.
VECTOR_MIN_EDGES = 1024

#: A vectorised solve may spend one label-correcting sweep (and one
#: settle-rank fixpoint pass) per this many directed edges before it
#: hands the source to :func:`_run`; see the module docstring.
VECTOR_EDGES_PER_SWEEP = 64


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
    reference oracle inserts keys into its result dicts.

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
    # anything negative), so the oracle loop's isinf() skip and
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


def _sweep_budget(snapshot: CsrSnapshot) -> int:
    """Sweeps (and rank passes) one vectorised solve may spend.

    Snapshots below the dispatch cut (reached only by direct calls) get
    the budget of one at the cut.
    """
    return max(snapshot.m, VECTOR_MIN_EDGES) // VECTOR_EDGES_PER_SWEEP


def _vector_distances(
    snapshot: CsrSnapshot, weights: np.ndarray, source_i: int
) -> Optional[np.ndarray]:
    """Exact distances by label-correcting sweeps, or ``None`` past the bound.

    Each sweep relaxes the out-edges of the nodes whose distance moved
    in the previous sweep (Jacobi style: every candidate reads the
    distances from before the sweep) and lowers each tail to its least
    candidate.  Each candidate is the IEEE sum ``D[u] + weights[e]``
    that :func:`_run` computes, so the fixpoint is the least float
    path sum ``_run`` settles on whenever no near-tie intervenes.  The
    sweep count grows with the hop depth of the tree; past
    :func:`_sweep_budget` sweeps the solve gives up (``None``).
    """
    heads, tails = snapshot.edge_arrays()
    dist = np.full(snapshot.n, _INF)
    dist[source_i] = 0.0
    moved = np.zeros(snapshot.n, dtype=bool)
    moved[source_i] = True
    for _sweep in range(_sweep_budget(snapshot)):
        edges = np.flatnonzero(moved[heads])
        if not edges.size:
            return dist
        lowered = dist.copy()
        np.minimum.at(lowered, tails[edges], dist[heads[edges]] + weights[edges])
        moved = lowered < dist
        dist = lowered
        if not moved.any():
            return dist
    return None


def _vector_solve(
    snapshot: CsrSnapshot, weights: np.ndarray, source_i: int
) -> Optional[Tuple[np.ndarray, np.ndarray, Callable[[], Sequence[int]]]]:
    """``(dist, prev, order)`` bit-identical to :func:`_run`, or ``None``.

    Solves the distances with :func:`_vector_distances`, then rebuilds
    ``_run``'s predecessors under the tie-break contract in the module
    docstring.  When every reached node has one exact tie from a
    strictly closer head, ``prev`` is read straight off those edges;
    otherwise the settle ranks (:func:`_settle_rank`) pick each node's
    winning push.  ``None`` means "run ``_run`` instead": the sweep or
    rank-pass bound was hit, or a candidate fell inside the relaxation
    epsilon of a distance without being equal to it, where ``_run``'s
    answer depends on arrival order.  ``dist`` and ``prev`` are numpy
    arrays indexed like ``_run``'s lists; ``order`` is a zero-argument
    callable computing it (:func:`_discovery_order`), holding
    ``weights`` and ``dist`` (never the weight list, ties or ranks).
    Weights must lie in ``[0, +inf]``, as
    :func:`~repro.network.csr.weights.weight_array` guarantees.
    """
    n = snapshot.n
    m1 = snapshot.m + 1
    # Keys below are (rank, edge) pairs packed as rank * m1 + edge, and
    # class-major (class, key) pairs packed again on top; stay in int64.
    invalid = n * m1
    if n * (invalid + 2) >= _INT64_LIMIT:
        return None
    dist = _vector_distances(snapshot, weights, source_i)
    if dist is None:
        return None
    tie_edges = _exact_ties(snapshot, weights, dist, source_i)
    if tie_edges is None:
        return None
    heads, tails = snapshot.edge_arrays()
    tie_heads = heads[tie_edges]
    tie_tails = tails[tie_edges]
    prev = np.full(n, -1, dtype=np.int64)

    # Every reached node but the source has an exact tie (its distance
    # is one of its candidates), and only those nodes are tie tails: as
    # many ties as those nodes is one tie each.  A lone exact candidate
    # from a strictly closer head is settled first, so it wins.
    if (
        tie_edges.size == np.count_nonzero(dist < _INF) - 1
        and (dist[tie_heads] < dist[tie_tails]).all()
    ):
        prev[tie_tails] = tie_heads
    else:
        obs.inc("csr.vector_ranked")
        rank = _settle_rank(snapshot, dist, source_i, tie_edges)
        if rank is None:
            return None
        win = _winning_push(rank, tie_heads, tie_tails, tie_edges, m1, invalid)
        targets = np.flatnonzero(dist < _INF)
        targets = targets[targets != source_i]
        win = win[targets]
        if (win == invalid).any():
            return None
        prev[targets] = heads[win % m1]

    return dist, prev, partial(
        _discovery_order, snapshot, weights, dist, source_i
    )


def _exact_ties(
    snapshot: CsrSnapshot, weights: np.ndarray, dist: np.ndarray, source_i: int
) -> Optional[np.ndarray]:
    """The edge positions whose candidate equals its tail's distance.

    Only finite candidates into nodes other than the source count (the
    relaxations ``_run`` makes); ``None`` when some other candidate
    lies within the relaxation epsilon of its tail's distance.
    """
    heads, tails = snapshot.edge_arrays()
    candidate = dist[heads] + weights
    incumbent = dist[tails]
    relaxable = tails != source_i  # _run never relaxes into the source
    tie = candidate == incumbent
    if (~tie & relaxable & (candidate - 1e-15 <= incumbent)).any():
        return None
    tie &= (candidate < _INF) & relaxable
    return np.flatnonzero(tie)


def _settle_rank(
    snapshot: CsrSnapshot,
    dist: np.ndarray,
    source_i: int,
    tie_edges: np.ndarray,
) -> Optional[np.ndarray]:
    """Each node's position in ``_run``'s settle order, or ``None``.

    By distance, then by the tick of the winning push over the exact-tie
    edges.  Nodes with a distance of their own are ranked by it alone;
    only classes of equal distances need the tick, found by fixpoint.
    ``None`` when the fixpoint passes exceed :func:`_sweep_budget`.
    """
    n = snapshot.n
    m1 = snapshot.m + 1
    invalid = n * m1
    heads, tails = snapshot.edge_arrays()
    by_dist = np.argsort(dist)
    rank = np.empty(n, dtype=np.int64)
    rank[by_dist] = np.arange(n)
    reached = int(np.count_nonzero(dist < _INF))
    sorted_dist = dist[by_dist[:reached]]
    equal_next = sorted_dist[1:] == sorted_dist[:-1]
    if not equal_next.any():
        return rank
    in_class = np.zeros(reached, dtype=bool)
    in_class[1:] = equal_next
    in_class[:-1] |= equal_next
    slots = np.flatnonzero(in_class)
    members = by_dist[slots]
    class_base = np.concatenate(([0], np.cumsum(~equal_next)))[slots]
    class_base *= invalid + 2
    class_base += 1
    is_member = np.zeros(n, dtype=bool)
    is_member[members] = True
    m_edges = tie_edges[is_member[tails[tie_edges]]]
    m_heads = heads[m_edges]
    m_tails = tails[m_edges]
    placed = members
    for _pass in range(_sweep_budget(snapshot)):
        win = _winning_push(rank, m_heads, m_tails, m_edges, m1, invalid)
        win[source_i] = -1
        order_in = members[np.argsort(class_base + win[members])]
        if np.array_equal(order_in, placed):
            return rank
        rank[order_in] = slots
        placed = order_in
    return None


def _winning_push(
    rank: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    edges: np.ndarray,
    m1: int,
    invalid: int,
) -> np.ndarray:
    """Per node, the packed ``(rank[u], e)`` key of its winning push.

    The least key over the given exact-tie edges whose head settles
    before their tail; ``invalid`` (``n * m1``) where there is none.
    """
    head_rank = rank[heads]
    key = head_rank * m1 + edges
    key[head_rank >= rank[tails]] = invalid
    win = np.full(rank.size, invalid, dtype=np.int64)
    np.minimum.at(win, tails, key)
    return win


def _discovery_order(
    snapshot: CsrSnapshot,
    weights: np.ndarray,
    dist: np.ndarray,
    source_i: int,
) -> Sequence[int]:
    """The reached nodes in ``_run``'s first-discovery order, source first.

    Each node's key is its earliest relaxation with a finite candidate,
    ``(rank[u], e)``; the vectorised solve defers this, with the settle
    ranks it needs, to the first reader of a tree's mapping views, the
    only consumers of ``order``.  When the rank fixpoint gives up, the
    order is ``_run``'s own.
    """
    tie_edges = _exact_ties(snapshot, weights, dist, source_i)
    rank = _settle_rank(snapshot, dist, source_i, tie_edges)
    if rank is None:
        _dist, _prev, order, _settled = _run(
            snapshot.indptr, snapshot.indices, weights.tolist(), source_i
        )
        return order
    heads, tails = snapshot.edge_arrays()
    m1 = snapshot.m + 1
    invalid = snapshot.n * m1
    finite_edges = np.flatnonzero(
        (dist[heads] + weights < _INF) & (tails != source_i)
    )
    first = np.full(snapshot.n, invalid, dtype=np.int64)
    np.minimum.at(
        first,
        tails[finite_edges],
        rank[heads[finite_edges]] * m1 + finite_edges,
    )
    first[source_i] = -1
    found = np.flatnonzero(first < invalid)
    return found[np.argsort(first[found])]


def _solve(
    snapshot: CsrSnapshot,
    source_i: int,
    weights: List[float],
    array: Optional[np.ndarray] = None,
    targets: Optional[bytearray] = None,
    n_targets: int = 0,
) -> Tuple[Sequence[float], Sequence[int], Any]:
    """``(dist, prev, order)`` from the solver the snapshot's size picks.

    The one dispatch point: snapshots with at least
    :data:`VECTOR_MIN_EDGES` directed edges try :func:`_vector_solve`
    first (``array`` is ``weights`` as a float64 array, built here when
    the caller holds none); everything else, and every vectorised
    give-up, runs :func:`_run`.  ``targets`` only shortens the
    ``_run`` path (see there); the vectorised solve always settles the
    whole tree, whose entries agree with an early exit's.  ``order`` is
    a sequence or, from the vectorised solve, a callable computing one
    (:class:`~repro.network.paths.ShortestPathTree` accepts either).
    """
    if snapshot.m >= VECTOR_MIN_EDGES:
        if array is None:
            array = np.asarray(weights, dtype=np.float64)
        solved = _vector_solve(snapshot, array, source_i)
        if solved is not None:
            return solved
        obs.inc("csr.vector_fallback")
    dist, prev, order, _settled = _run(
        snapshot.indptr,
        snapshot.indices,
        weights,
        source_i,
        targets=targets,
        n_targets=n_targets,
    )
    return dist, prev, order


def _source_index(snapshot: CsrSnapshot, source: str) -> int:
    index = snapshot.index.get(source)
    if index is None:
        # Raise the same TopologyError the network's node lookup does
        # (the snapshot covers every node of its version).
        snapshot.network.node(source)
        raise TopologyError(f"node {source!r} missing from CSR snapshot")
    return index


def sssp_tree(
    snapshot: CsrSnapshot,
    source: str,
    weights: List[float],
    array: Optional[np.ndarray] = None,
) -> ShortestPathTree:
    """Full single-source tree over the snapshot under a weight list.

    ``array`` is the same weights as a float64 numpy array when the
    caller already holds one (the path cache does); see :func:`_solve`.
    """
    source_i = _source_index(snapshot, source)
    dist, prev, order = _solve(snapshot, source_i, weights, array)
    if isinstance(dist, list):
        # The heap loop's lists, as tuples: a tuple of numbers drops out
        # of the cyclic GC once a collection has seen it, where cached
        # lists would be traversed again by every full collection.
        dist, prev, order = tuple(dist), tuple(prev), tuple(order)
    return ShortestPathTree(
        source, snapshot.names, snapshot.index, dist, prev, order
    )


def _extract_path(
    snapshot: CsrSnapshot,
    source: str,
    destination: str,
    dist: Sequence[float],
    prev: Sequence[int],
    target_i: int,
) -> PathResult:
    # A target left at a finite distance is settled: a search stops
    # only once its targets are settled or its frontier is empty.
    if dist[target_i] == _INF:
        raise NoPathError(source, destination)
    chain = [target_i]
    while prev[chain[-1]] >= 0:
        chain.append(prev[chain[-1]])
    names = snapshot.names
    nodes = tuple(names[i] for i in reversed(chain))
    return PathResult(nodes=nodes, weight=float(dist[target_i]))


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
    that identity cannot be proven, so over-reporting is safe.  The
    tree must come from this kernel over a snapshot of the same
    topology version: its arrays are read by the snapshot's node
    indices.

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
    changed = np.flatnonzero(old_weights != new_weights)
    if changed.size == 0:
        return True
    heads = snapshot.heads
    tails = snapshot.indices
    dist = tree.dist
    prev = tree.prev
    source_i = tree.index[tree.source]
    for e in changed.tolist():
        v = tails[e]
        if v == source_i:
            continue
        u = heads[e]
        if new_weights[e] > old_weights[e]:
            if prev[v] == u:
                return False
            continue
        du = dist[u]
        if du == _INF:
            continue
        if du + new_weights[e] <= dist[v] + 1e-15:
            return False
    return True


# ---------------------------------------------------------------------------
# Uncached entry points (unshareable specs bypass the path cache)
# ---------------------------------------------------------------------------

def _snapshot_and_weights(
    network: Network, spec
) -> Tuple[CsrSnapshot, np.ndarray, list]:
    """The refreshed snapshot and lowered weights (array and list) for a spec."""
    snapshot = get_snapshot(network)
    array = weight_array(snapshot, spec.cache_token())
    return snapshot, array, array.tolist()


def sssp_csr(network: Network, source: str, spec) -> ShortestPathTree:
    """Uncached CSR single-source tree."""
    snapshot, array, weights = _snapshot_and_weights(network, spec)
    return sssp_tree(snapshot, source, weights, array)


def shortest_paths_csr(
    network: Network, pairs: Sequence[Tuple[str, str]], spec
) -> List[Union[PathResult, NoPathError]]:
    """Uncached point-to-point paths for a batch of ``(source, destination)``.

    One snapshot and one weight lowering serve the whole batch, so route
    every pair before acting on any answer that could move the weights.
    Pairs are grouped by source: each distinct source is one solve (see
    :func:`_solve`) that stops once all of its destinations are settled.
    Settled entries are final, so each path is the one a per-pair
    early-exit solve gives, bit-identical to the reference oracle's
    object Dijkstra (``tests/oracle.py``) under ``spec.weight_fn()``.
    An unreachable pair's slot holds the
    :class:`~repro.errors.NoPathError` a point-to-point query raises for
    it (the caller raises or skips it); an unknown node raises the
    network's :class:`~repro.errors.TopologyError` before any pair is
    solved.
    """
    snapshot, array, weights = _snapshot_and_weights(network, spec)
    ends = [
        (_source_index(snapshot, source), _source_index(snapshot, destination))
        for source, destination in pairs
    ]
    slots_by_source: Dict[int, List[int]] = {}
    for slot, (source_i, _target_i) in enumerate(ends):
        slots_by_source.setdefault(source_i, []).append(slot)
    results: List[Union[PathResult, NoPathError, None]] = [None] * len(pairs)
    for source_i, slots in slots_by_source.items():
        targets = bytearray(snapshot.n)
        for slot in slots:
            targets[ends[slot][1]] = 1
        dist, prev, _order = _solve(
            snapshot,
            source_i,
            weights,
            array,
            targets=targets,
            n_targets=targets.count(1),
        )
        for slot in slots:
            source, destination = pairs[slot]
            try:
                results[slot] = _extract_path(
                    snapshot, source, destination, dist, prev, ends[slot][1]
                )
            except NoPathError as exc:
                results[slot] = exc
    return results


def terminal_tree_csr(
    network: Network, root: str, terminals: Sequence[str], spec
) -> TreeResult:
    """Uncached CSR terminal tree, byte-identical to the cached one.

    One array solve per terminal (except the last), stopping once the
    later terminals are settled, builds the metric closure; it feeds the
    shared :func:`~repro.network.paths.tree_from_metric_closure`
    finisher.  An unknown root raises the network's
    :class:`~repro.errors.TopologyError` even when it is the only
    terminal.
    """
    network.node(root)
    terminal_list = list(dict.fromkeys([root, *terminals]))
    if len(terminal_list) == 1:
        return TreeResult(root=root, parent={}, weight=0.0)
    snapshot, array, weights = _snapshot_and_weights(network, spec)
    index = snapshot.index
    closure = {}
    for i, a in enumerate(terminal_list[:-1]):
        remaining = terminal_list[i + 1 :]
        targets = bytearray(snapshot.n)
        for b in remaining:
            targets[_source_index(snapshot, b)] = 1
        dist, prev, _order = _solve(
            snapshot,
            _source_index(snapshot, a),
            weights,
            array,
            targets=targets,
            n_targets=len(remaining),
        )
        for b in remaining:
            closure[(a, b)] = _extract_path(
                snapshot, a, b, dist, prev, index[b]
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
    the reference oracle's ban-aware object search (``tests/oracle.py``)
    under the same bans.  Bans arrive as Yen's name/edge sets; they are
    interned to index form per spur search (spur path lengths dwarf the
    interning cost).
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
        dist, prev, _order, _settled = _run(
            snapshot.indptr,
            snapshot.indices,
            weights,
            source_i,
            target_i,
            ban_nodes,
            ban_edges,
        )
        return _extract_path(snapshot, src, dst, dist, prev, target_i)

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
    """Uncached CSR Yen: the shared control flow over array searches."""
    snapshot, _array, weights = _snapshot_and_weights(network, spec)
    return _yen(
        source,
        destination,
        k,
        array_edge_weight(snapshot, weights),
        search=array_search(snapshot, weights),
    )

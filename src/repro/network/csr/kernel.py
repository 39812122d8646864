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
distances and predecessors are *bit-identical* — which is what lets the
oracle serve as the reference the equivalence tests and benchmarks
check this kernel against.

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

Dispatch
--------
:func:`_solve` takes a batch of sources and picks the solver from
observable input only (:func:`batch_size`).  Snapshots with fewer than
:data:`VECTOR_MIN_EDGES` directed edges run ``_run``, one source at a
time as the caller reads the results, so a caller that stops at its
first unreachable pair solves no tree beyond it.  Larger ones try
:func:`_vector_solve` on up to :data:`VECTOR_BATCH` sources per pass.
A pass works on the snapshot's core (:class:`~.snapshot.CsrCore`): the
graph less its pendants, the nodes whose one out-edge and one in-edge
join them to the same parent (every server's access link makes one).
It stacks the core's ``heads``/``tails`` once per source (row ``r``'s
core node indices offset by ``r * n``) and runs the label-correcting
numpy sweeps for ``D``, the exact-tie test and the contract above in
vectorised form over all the rows at once; a single source is the
batch of one.  A pendant source's row starts at its parent, at the
distance of the one push ``_run`` makes from the source, and nothing
relaxes into that start, as nothing relaxes into a source.  Each
pendant is attached afterwards through its one in-edge.  That is
exact: the in-edge is the pendant's only candidate, so it has no
near-tie and no rank question, and its out-edge leads back to a parent
``_run`` settled before it, so that edge is never relaxed; the core's
settle order is ``_run``'s less the pendants.  A graph without
pendants is its own core.  When every reached core node of a row has
one exact tie from a strictly closer head, its ``prev`` is read off
those edges and no settle rank is built.  Only ambiguous ties
(several exact ties into a node, or a tie at equal distance:
zero-weight edges, hop weights) build the ranks, per row on that
row's distances, by a fixpoint over the equal-distance classes only.
A row hands its source to ``_run`` on a near-tie, or when the sweeps
or its rank passes exceed one per :data:`VECTOR_EDGES_PER_SWEEP`
edges.  No edge joins two rows, so a
give-up leaves the other rows as they would be alone.  Sweeps grow with
hop depth while ``_run`` grows with edge count, so the budget caps what
a give-up wastes at about half a ``_run``.  Passes are counted as
``csr.vector_batches``, the core edges they sweep (rows times core
edges) as ``csr.vector_swept_edges``, give-ups as
``csr.vector_fallback`` and rows that needed ranks as
``csr.vector_ranked`` when telemetry is on.  The sweep budget counts
the whole snapshot's edges.

Measured per source under aux weights, best of 5 over 8 sources, on
a 2-vCPU VM (CPython 3.11.7, numpy 2.4.6): the edges a pass sweeps
(``core``), ``_run`` and the vectorised solve of one source called
directly (ms), the sweeps that solve needs, and what the dispatch
delivers against ``_run`` (BASELINES.md has the full table; of these
rows only fat-tree needs ranks in the solve).  In the same session the
whole-graph solve this replaced read 0.213 ms (7.27x dispatched) on
the hub fabric and 0.875 ms (11.00x) on N=5000:

=========================  =====  =====  =====  ========  ======  ==========
family                         m   core   _run  vector    sweeps  dispatched
=========================  =====  =====  =====  ========  ======  ==========
scale-free N=20              114     74  0.021  0.064          6  ``_run``
scale-free N=100             594    394  0.123  0.080          8  ``_run``
fat-tree k=8                 768    512  0.128  0.143          5  ``_run``
scale-free N=200            1194    794  0.267  0.094         10  2.83x
waxman N=100                1546   1346  0.208  0.090          7  2.28x
scale-free N=1000 (hub)     5994   3994  1.549  0.184         11  8.57x
scale-free N=5000          29994  19994  9.819  0.651         14  15.31x
metro-mesh 200 sites        1300    500  0.300  gives up      54  0.68x
ring N=1000                 2000   2000  0.379  gives up     501  0.62x
=========================  =====  =====  =====  ========  ======  ==========

Batched, on the hub fabric (N=1000, m=5994, aux weights): ms per source
for passes of ``k`` sources, best of 5 over the same 48 sources, against
``_run`` at 1.54 ms per source in the same run (the whole-graph passes
this replaced read 0.232, 0.202, 0.181, 0.192 and 0.227 in the same
session).  A pass sweeps until its deepest row settles and scans every
row's block each sweep, so the saving is the per-pass overhead and
flattens out by ``k`` = 4; the cap of 16 keeps a terminal tree of up
to 17 terminals in one pass.

=====  =====  =====  =====  =====
k=1    k=2    k=4    k=8    k=16
=====  =====  =====  =====  =====
0.194  0.157  0.133  0.125  0.130
=====  =====  =====  =====  =====

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
from .snapshot import CsrCore, CsrSnapshot, get_snapshot
from .weights import weight_array

_INF = math.inf
#: A vectorised tree's predecessor array: node indices, -1 for none.
#: Half the width of int64, and a cached tree holds one entry per node;
#: no network that fits in memory has node indices near its range.
_PREV_DTYPE = np.int32
_INT64_LIMIT = 2**63

#: Snapshots with at least this many directed edges try the vectorised
#: solve first; smaller ones always run :func:`_run`.  See the measured
#: crossover table in the module docstring.
VECTOR_MIN_EDGES = 1024

#: A vectorised solve may spend one label-correcting sweep (and one
#: settle-rank fixpoint pass) per this many directed edges before it
#: hands the source to :func:`_run`; see the module docstring.
VECTOR_EDGES_PER_SWEEP = 64

#: Sources one vectorised pass solves together; longer batches are cut
#: into passes of this many.  See the module docstring.
VECTOR_BATCH = 16


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
) -> Tuple[List[float], List[int]]:
    """The shared relaxation loop over CSR arrays: ``(dist, prev)``.

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
                    dist[v] = nd
                    prev[v] = u
                    push(frontier, (nd, tick, v))
                    tick += 1
    return dist, prev


def _sweep_budget(snapshot: CsrSnapshot) -> int:
    """Sweeps (and rank passes) one vectorised solve may spend.

    Snapshots below the dispatch cut (reached only by direct calls) get
    the budget of one at the cut.
    """
    return max(snapshot.m, VECTOR_MIN_EDGES) // VECTOR_EDGES_PER_SWEEP


def batch_size(snapshot: CsrSnapshot) -> int:
    """How many sources one solve takes together: the size dispatch.

    :data:`VECTOR_BATCH` on snapshots the vectorised solve serves, one
    below :data:`VECTOR_MIN_EDGES`, where :func:`_run` solves each
    source only when its caller reads it.
    """
    return VECTOR_BATCH if snapshot.m >= VECTOR_MIN_EDGES else 1


def _stacked_edges(core: CsrCore, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(heads, tails)`` for ``rows`` stacked copies of the core.

    See :meth:`CsrCore.edge_arrays`.  The first batch of several sources
    stacks the core's arrays for a full :data:`VECTOR_BATCH`, so they
    are built once, not once per size.
    """
    if rows > 1:
        core.edge_arrays(max(rows, VECTOR_BATCH))
    return core.edge_arrays(rows)


def _row_starts(
    snapshot: CsrSnapshot,
    core: CsrCore,
    weights: np.ndarray,
    sources: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Where each source's row starts in the core, and at what distance.

    A core source starts at itself at ``0.0``.  A pendant source starts
    at its parent at ``0.0 + w`` of its one out-edge: the one push
    :func:`_run` makes before it settles the parent, after which nothing
    relaxes into the parent, as nothing relaxes into a source.  Returns
    the starts as core node indices, their distances, and per row the
    parent a pendant source hangs off (-1 for a core source).
    """
    starts = core.local[sources]
    start_dist = np.zeros(len(sources))
    parents = [-1] * len(sources)
    for row in np.flatnonzero(starts < 0).tolist():
        out_edge = snapshot.indptr[sources[row]]
        parent = snapshot.indices[out_edge]
        starts[row] = core.local[parent]
        start_dist[row] = 0.0 + weights[out_edge]
        parents[row] = parent
    return starts, start_dist, parents


def _vector_distances(
    core: CsrCore,
    edges: Tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    starts: np.ndarray,
    start_dist: np.ndarray,
    budget: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact core distances from each row's start by label-correcting sweeps.

    The rows are swept together over ``edges``, the core stacked once
    per row (:meth:`CsrCore.edge_arrays`), in which no edge joins two
    rows; ``weights`` repeats the core edges' weights per row.  Row
    ``r`` starts at stacked node ``starts[r]`` with distance
    ``start_dist[r]``.  Returns ``(dist, converged)``: ``dist[r * n +
    v]`` is the distance to core node ``v`` in row ``r``, valid where
    ``converged[r]``.  Each sweep relaxes the out-edges of the nodes
    whose distance moved in the previous sweep (Jacobi style: every
    candidate reads the distances from before the sweep) and lowers
    each tail to its least candidate.  Each candidate is the IEEE sum
    ``D[u] + weights[e]`` that :func:`_run` computes, so a row's
    fixpoint is the least float path sum ``_run`` settles on whenever
    no near-tie intervenes.  The sweep count grows with the hop depth
    of the tree; a row still moving after ``budget`` sweeps has given
    up (``converged[r]`` is False).  Rows never read each other, so
    each row is what its source alone would give.
    """
    heads, tails = edges
    k = len(starts)
    dist = np.full(k * core.n, _INF)
    dist[starts] = start_dist
    moved = np.zeros(k * core.n, dtype=bool)
    moved[starts] = True
    for _sweep in range(budget):
        active = np.flatnonzero(moved[heads])
        if not active.size:
            break
        candidate = dist[heads[active]]
        candidate += weights[active]
        lowered = dist.copy()
        np.minimum.at(lowered, tails[active], candidate)
        moved = lowered < dist
        dist = lowered
        if not moved.any():
            break
    else:
        return dist, ~moved.reshape(k, core.n).any(axis=1)
    return dist, np.ones(k, dtype=bool)


def _vector_solve(
    snapshot: CsrSnapshot, weights: np.ndarray, sources: Sequence[int]
) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Per source, ``(dist, prev)`` bit-identical to :func:`_run`, or ``None``.

    One vectorised pass over the whole batch, on the snapshot's core
    (:meth:`CsrSnapshot.core`): the distances from
    :func:`_vector_distances`, the exact ties and near-tie test of
    :func:`_exact_ties`, and the lone-tie predecessor read all run on
    the stacked rows at once.  When every reached core node of a row
    has one exact tie from a strictly closer head, its ``prev`` is read
    straight off those edges; a row with ambiguous ties builds settle
    ranks (:func:`_settle_rank`) on its own distances, without
    re-solving.  Each pendant is then attached through its one in-edge,
    the only candidate it ever gets.  ``None`` means "run ``_run`` for
    this source instead": its sweep or rank-pass bound was hit, or a
    candidate fell inside the relaxation epsilon of a distance without
    being equal to it, where ``_run``'s answer depends on arrival
    order.  Each row gives up on its own.  ``dist`` and ``prev`` are
    numpy arrays indexed like ``_run``'s lists, one pair of its own per
    source (duplicates included).  Weights must lie in ``[0, +inf]``,
    as :func:`~repro.network.csr.weights.weight_array` guarantees.
    """
    k = len(sources)
    n = snapshot.n
    m = snapshot.m
    # Rank keys are (rank, edge) pairs packed as rank * (m + 1) + edge,
    # and class-major (class, key) pairs packed again on top; stay in
    # int64.
    if n * (n * (m + 1) + 2) >= _INT64_LIMIT:
        return [None] * k
    core = snapshot.core()
    nc, mc = core.n, core.m
    obs.inc("csr.vector_batches")
    obs.inc("csr.vector_swept_edges", k * mc)
    budget = _sweep_budget(snapshot)
    starts, start_dist, parents = _row_starts(snapshot, core, weights, sources)
    starts += np.arange(k, dtype=np.int64) * nc
    edges = _stacked_edges(core, k)
    stacked = weights[core.edges]
    if k > 1:
        stacked = np.tile(stacked, k)
    dist, solved = _vector_distances(
        core, edges, stacked, starts, start_dist, budget
    )
    tie_edges, solved = _exact_ties(core, edges, stacked, dist, starts, solved)
    tie_heads = edges[0][tie_edges]
    tie_tails = edges[1][tie_edges]
    # Row r's ties are tie_edges[bounds[r]:bounds[r + 1]].
    bounds = np.searchsorted(tie_edges, np.arange(k + 1) * mc)
    ties = np.diff(bounds)

    # Every reached core node but the start has an exact tie (its
    # distance is one of its candidates), and only those nodes are tie
    # tails: as many ties as those nodes is one tie each.  A start
    # behind a failed access link is not reached, and reaches nothing.
    # A lone exact candidate from a strictly closer head is settled
    # first, so it wins.
    reached = np.count_nonzero((dist < _INF).reshape(k, nc), axis=1)
    lone = ties == reached - (start_dist < _INF)
    not_closer = np.flatnonzero(dist[tie_heads] >= dist[tie_tails])
    lone[tie_edges[not_closer] // max(mc, 1)] = False
    # Predecessors as stacked core indices: row r's entries, unreached
    # ones (r * nc - 1) included, are off by r * nc.
    local_prev = np.repeat(np.arange(-1, k * nc - 1, nc, dtype=np.int64), nc)
    if lone.all():
        local_prev[tie_tails] = tie_heads
    else:
        read = np.repeat(lone, ties)
        local_prev[tie_tails[read]] = tie_heads[read]
    local_prev = local_prev.reshape(k, nc)
    local_prev -= (np.arange(k, dtype=np.int64) * nc)[:, None]
    # Core index -> snapshot index, with -1 (none) kept as -1.
    names = np.append(core.nodes, -1)
    in_weights = weights[core.in_edges]

    solutions: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    for row, source_i in enumerate(sources):
        if not solved[row]:
            solutions.append(None)
            continue
        core_dist = dist[row * nc : (row + 1) * nc]
        if lone[row]:
            core_prev = local_prev[row]
        else:
            obs.inc("csr.vector_ranked")
            core_prev = _ranked_prev(
                core,
                core_dist,
                starts[row] - row * nc,
                tie_edges[bounds[row] : bounds[row + 1]] - row * mc,
                budget,
            )
            if core_prev is None:
                solutions.append(None)
                continue
        # The row over the whole snapshot, in arrays of its own so that
        # a kept tree does not pin the batch: the core's entries, then
        # each pendant through its one in-edge, as _run relaxes it once
        # its parent settles (an unreached parent or a +inf edge leaves
        # it at +inf with no predecessor).
        row_dist = np.empty(n)
        row_dist[core.nodes] = core_dist
        pendant_dist = row_dist[core.parents]
        pendant_dist += in_weights
        row_dist[core.pendants] = pendant_dist
        row_prev = np.empty(n, dtype=_PREV_DTYPE)
        row_prev[core.nodes] = names[core_prev]
        row_prev[core.pendants] = np.where(
            pendant_dist < _INF, core.parents, -1
        )
        parent = parents[row]
        if parent >= 0:
            # A pendant source settles first, then its parent.
            row_dist[source_i] = 0.0
            row_prev[source_i] = -1
            if row_dist[parent] < _INF:
                row_prev[parent] = source_i
        solutions.append((row_dist, row_prev))
    return solutions


def _exact_ties(
    core: CsrCore,
    edges: Tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    dist: np.ndarray,
    starts: np.ndarray,
    solved: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The stacked edge positions whose candidate equals its tail's distance.

    Arguments are laid out as :func:`_vector_distances` takes and
    returns them; row ``r``'s core edge ``e`` sits at ``r * m + e``.
    Only finite candidates into nodes other than the row's start count
    (the relaxations ``_run`` makes), and only in rows still ``solved``.
    Returns the positions, ascending, and ``solved`` less the rows where
    some other candidate lies within the relaxation epsilon of its
    tail's distance.
    """
    heads, tails = edges
    k = len(starts)
    m = core.m
    # _run never relaxes into the source (nor, from a pendant source,
    # into the parent it settles next).
    relaxable = (tails.reshape(k, m) != starts[:, None]).ravel()
    # In place where the arithmetic allows: a batch's per-edge arrays
    # are its largest temporaries.
    candidate = dist[heads]
    candidate += weights
    incumbent = dist[tails]
    tie = candidate == incumbent
    near = ~tie
    near &= relaxable
    tie &= relaxable
    tie &= candidate < _INF
    candidate -= 1e-15
    near &= candidate <= incumbent
    if near.any():
        solved = solved.copy()
        solved[np.flatnonzero(near) // m] = False
    if not solved.all():
        tie &= np.repeat(solved, m)
    return np.flatnonzero(tie), solved


def _ranked_prev(
    core: CsrCore,
    dist: np.ndarray,
    start: int,
    tie_edges: np.ndarray,
    budget: int,
) -> Optional[np.ndarray]:
    """One row's core ``prev`` from settle ranks, or ``None`` to give up.

    ``dist`` is the row's core distances from ``start`` and
    ``tie_edges`` its exact-tie core edge positions.  Each reached core
    node's predecessor is the head of its winning push; the row gives
    up when the rank fixpoint runs out of its ``budget`` of passes or a
    node has no push from a head settled before it.  Pendants never
    push into the core (their one out-edge leads to a parent settled
    before them), so the core's settle order is ``_run``'s less the
    pendants.
    """
    m1 = core.m + 1
    invalid = core.n * m1
    heads, tails = core.edge_arrays()
    rank = _settle_rank(core, dist, start, tie_edges, budget)
    if rank is None:
        return None
    win = _winning_push(
        rank, heads[tie_edges], tails[tie_edges], tie_edges, m1, invalid
    )
    targets = np.flatnonzero(dist < _INF)
    targets = targets[targets != start]
    win = win[targets]
    if (win == invalid).any():
        return None
    prev = np.full(core.n, -1, dtype=np.int64)
    prev[targets] = heads[win % m1]
    return prev


def _settle_rank(
    core: CsrCore,
    dist: np.ndarray,
    start: int,
    tie_edges: np.ndarray,
    budget: int,
) -> Optional[np.ndarray]:
    """Each core node's position in ``_run``'s settle order, or ``None``.

    By distance, then by the tick of the winning push over the exact-tie
    edges.  Nodes with a distance of their own are ranked by it alone;
    only classes of equal distances need the tick, found by fixpoint.
    ``None`` when the fixpoint passes exceed ``budget``.
    """
    n = core.n
    m1 = core.m + 1
    invalid = n * m1
    heads, tails = core.edge_arrays()
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
    for _pass in range(budget):
        win = _winning_push(rank, m_heads, m_tails, m_edges, m1, invalid)
        win[start] = -1
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


def _run_to(
    snapshot: CsrSnapshot,
    weights: List[float],
    source_i: int,
    targets: Optional[Sequence[int]],
) -> Tuple[List[float], List[int]]:
    """:func:`_run` from one source, stopping once ``targets`` are settled.

    ``targets`` are node indices; ``None`` runs the whole tree.
    """
    if targets is None:
        return _run(snapshot.indptr, snapshot.indices, weights, source_i)
    flags = bytearray(snapshot.n)
    for target_i in targets:
        flags[target_i] = 1
    return _run(
        snapshot.indptr,
        snapshot.indices,
        weights,
        source_i,
        targets=flags,
        n_targets=flags.count(1),
    )


def _solve(
    snapshot: CsrSnapshot,
    sources: Sequence[int],
    weights: List[float],
    array: Optional[np.ndarray] = None,
    targets: Optional[Sequence[Sequence[int]]] = None,
) -> Iterator[Tuple[Sequence[float], Sequence[int]]]:
    """``(dist, prev)`` per source, in order, from the solver the size picks.

    The one dispatch point (see :func:`batch_size`).  On snapshots with at
    least :data:`VECTOR_MIN_EDGES` directed edges, each run of up to
    :data:`VECTOR_BATCH` sources is one :func:`_vector_solve` pass
    (``array`` is ``weights`` as a float64 array, built here when the
    caller holds none), and a source that pass gives up on runs
    :func:`_run`.  Smaller snapshots run ``_run`` one source at a time
    as the caller reads the results, so a caller that stops early (at
    an unreachable pair, say) solves no tree past that point.
    ``targets[r]`` lists the node indices source ``r``'s caller will
    read: it only shortens the ``_run`` path (see there); the
    vectorised solve always settles the whole tree, whose entries agree
    with an early exit's.
    """
    if snapshot.m < VECTOR_MIN_EDGES:
        # map() is lazy: each _run starts when its result is read.
        if targets is None:
            run = partial(_run, snapshot.indptr, snapshot.indices, weights)
            return map(run, sources)
        return map(partial(_run_to, snapshot, weights), sources, targets)
    if array is None:
        array = np.asarray(weights, dtype=np.float64)
    return _vector_passes(snapshot, sources, weights, array, targets)


def _vector_passes(
    snapshot: CsrSnapshot,
    sources: Sequence[int],
    weights: List[float],
    array: np.ndarray,
    targets: Optional[Sequence[Sequence[int]]],
) -> Iterator[Tuple[Sequence[float], Sequence[int]]]:
    """:func:`_solve` above the cut: one :func:`_vector_solve` per batch."""
    for start in range(0, len(sources), VECTOR_BATCH):
        chunk = sources[start : start + VECTOR_BATCH]
        solutions = _vector_solve(snapshot, array, chunk)
        for row, solution in enumerate(solutions, start):
            if solution is None:
                obs.inc("csr.vector_fallback")
                solution = _run_to(
                    snapshot,
                    weights,
                    sources[row],
                    None if targets is None else targets[row],
                )
            yield solution


def _source_index(snapshot: CsrSnapshot, source: str) -> int:
    index = snapshot.index.get(source)
    if index is None:
        # Raise the same TopologyError the network's node lookup does
        # (the snapshot covers every node of its version).
        snapshot.network.node(source)
        raise TopologyError(f"node {source!r} missing from CSR snapshot")
    return index


def sssp_trees(
    snapshot: CsrSnapshot,
    sources: Sequence[str],
    weights: List[float],
    array: Optional[np.ndarray] = None,
) -> List[ShortestPathTree]:
    """Full trees over the snapshot from each source, in order.

    One :func:`_solve` over the whole batch; ``array`` is the same
    weights as a float64 numpy array when the caller already holds one
    (the path cache does).  Every source is resolved before any is
    solved, so an unknown one raises the network's
    :class:`~repro.errors.TopologyError` first.  All the trees are
    built: a caller that may stop early passes fewer sources.
    """
    solves = _solve(
        snapshot,
        [_source_index(snapshot, source) for source in sources],
        weights,
        array,
    )
    names = snapshot.names
    index = snapshot.index
    trees = []
    for source, (dist, prev) in zip(sources, solves):
        if isinstance(dist, list):
            # The heap loop's lists, as tuples: a tuple of numbers drops
            # out of the cyclic GC once a collection has seen it, where
            # cached lists would be traversed again by every full
            # collection.
            dist, prev = tuple(dist), tuple(prev)
        trees.append(ShortestPathTree(source, names, index, dist, prev))
    return trees


def sssp_tree(
    snapshot: CsrSnapshot,
    source: str,
    weights: List[float],
    array: Optional[np.ndarray] = None,
) -> ShortestPathTree:
    """Full single-source tree: the one-source case of :func:`sssp_trees`."""
    return sssp_trees(snapshot, (source,), weights, array)[0]


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
    Pairs are grouped by source, and the distinct sources are solved as
    one batch (see :func:`_solve`); on the heap path each stops once
    all of its destinations are settled.
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
    solves = _solve(
        snapshot,
        list(slots_by_source),
        weights,
        array,
        targets=[
            [ends[slot][1] for slot in slots] for slots in slots_by_source.values()
        ],
    )
    for slots, (dist, prev) in zip(slots_by_source.values(), solves):
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

    One batched solve over every terminal but the last (see
    :func:`_solve`; on the heap path each source stops once the later
    terminals are settled) feeds its ``(dist, prev)`` rows, as trees,
    to the shared :func:`~repro.network.paths.tree_from_metric_closure`
    finisher, which reads only the later terminals' entries.  An
    unknown root raises the network's
    :class:`~repro.errors.TopologyError` even when it is the only
    terminal.
    """
    network.node(root)
    terminal_list = list(dict.fromkeys([root, *terminals]))
    if len(terminal_list) == 1:
        return TreeResult(root=root, parent={}, weight=0.0)
    snapshot, array, weights = _snapshot_and_weights(network, spec)
    ends = [_source_index(snapshot, terminal) for terminal in terminal_list]
    solves = _solve(
        snapshot,
        ends[:-1],
        weights,
        array,
        targets=[ends[i + 1 :] for i in range(len(ends) - 1)],
    )
    names = snapshot.names
    index = snapshot.index
    trees = (
        ShortestPathTree(source, names, index, dist, prev)
        for source, (dist, prev) in zip(terminal_list, solves)
    )
    # The finisher only reads edge weights for its final sum; the array
    # view returns the same float64s as the scalar weight fn without the
    # per-edge link scans.
    return tree_from_metric_closure(
        root, terminal_list, trees, array_edge_weight(snapshot, weights)
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
        dist, prev = _run(
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

"""Array-native CSR routing kernel: the one production routing path.

An object-graph search (the reference oracle in ``tests/oracle.py``)
traverses ``Link`` objects through dict lookups and per-edge weight
closures; at N=200 that Python overhead — not algorithmic redundancy —
dominates schedule time.  This package mirrors the topology into flat
arrays once per ``Network.topology_version`` and runs the same
algorithms over them:

* :mod:`~repro.network.csr.snapshot` — the CSR adjacency snapshot
  (``indptr``/``indices`` plus numpy per-edge state arrays) whose
  overlay is re-gathered from the network's link ledger when its epoch
  moves, so reserve/release never forces a rebuild;
* :mod:`~repro.network.csr.weights` — ``cache_token()``-driven array
  weight builders lowering :class:`~repro.network.routing.LatencyWeightSpec`,
  :class:`~repro.network.routing.HopWeightSpec`, and the auxiliary-graph
  token to vectorised per-edge weight arrays;
* :mod:`~repro.network.csr.kernel` — array Dijkstra/SSSP and Yen's
  k-shortest-paths whose relaxation order, tie-breaking counter, and
  ``1e-15`` epsilon mirror the oracle's heap loop exactly, so results are
  byte-identical, plus the incremental-repair change-cut check that lets
  cached trees survive link deltas without recomputation.

Single-source trees come from one of two solvers, chosen by the
snapshot's directed-edge count alone.  Below ``VECTOR_MIN_EDGES`` the
pure-Python heap loop runs.  At or above it a numpy solve runs first:
label-correcting sweeps find the distances, then the heap loop's
predecessors are rebuilt from its written tie-break contract (the
kernel docstring states it).  The numpy solve hands the
source back to the heap loop when a candidate lands within the
``1e-15`` epsilon of a distance without equalling it, or when its sweep
budget (one sweep per ``VECTOR_EDGES_PER_SWEEP`` edges) runs out on a
deep graph.  Either way the tree is bit-identical to the heap loop's.
Trees are array-backed
(:class:`~repro.network.paths.ShortestPathTree`), so no per-node dict
is built unless a caller asks for the mapping views.

Every scheduler routes through :class:`~repro.network.routing.PathCache`,
which calls these entry points; numpy is a hard dependency.  One-shot
point-to-point routes that nobody looks up again — background-traffic
injection and optical grooming's default lightpaths — bypass the cache
through :func:`~repro.network.csr.kernel.shortest_paths_csr`, which
answers a whole batch of pairs from one snapshot and one weight
lowering.  A weight spec whose token the builders cannot lower is an
error (:class:`~repro.errors.TopologyError`), never a silent detour onto
another kernel: this is the only routing kernel in the package.  Yen's
control flow (:func:`repro.network.paths.k_shortest_paths`) runs over
this package's array searches, and the exact Steiner cost
(:mod:`repro.network.steiner`) reads its trees through the path cache.
The object-graph reference the equivalence tests and benchmarks
compare against lives in ``tests/oracle.py``.
"""

from __future__ import annotations

from .snapshot import CsrSnapshot, get_snapshot, peek_snapshot
from .weights import weight_array
from .kernel import (
    array_edge_weight,
    array_search,
    k_shortest_paths_csr,
    shortest_paths_csr,
    sssp_csr,
    sssp_tree,
    terminal_tree_csr,
    tree_unaffected,
)

__all__ = [
    "CsrSnapshot",
    "array_edge_weight",
    "array_search",
    "get_snapshot",
    "k_shortest_paths_csr",
    "peek_snapshot",
    "shortest_paths_csr",
    "sssp_csr",
    "sssp_tree",
    "terminal_tree_csr",
    "tree_unaffected",
    "weight_array",
]

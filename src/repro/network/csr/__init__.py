"""Array-native CSR routing kernel: the one production routing path.

The object-graph kernel (:mod:`repro.network.paths`) traverses ``Link``
objects through dict lookups and per-edge weight closures; at N=200 that
Python overhead — not algorithmic redundancy — dominates schedule time.
This package mirrors the topology into flat arrays once per
``Network.topology_version`` and runs the same algorithms over them:

* :mod:`~repro.network.csr.snapshot` — the CSR adjacency snapshot
  (``indptr``/``indices`` plus numpy per-edge state arrays) with a
  dirty-link overlay so reserve/release refreshes touched rows in place
  instead of rebuilding;
* :mod:`~repro.network.csr.weights` — ``cache_token()``-driven array
  weight builders lowering :class:`~repro.network.routing.LatencyWeightSpec`,
  :class:`~repro.network.routing.HopWeightSpec`, and the auxiliary-graph
  token to vectorised per-edge weight arrays;
* :mod:`~repro.network.csr.kernel` — array Dijkstra/SSSP and Yen's
  k-shortest-paths whose relaxation order, tie-breaking counter, and
  ``1e-15`` epsilon mirror the object kernel exactly, so results are
  byte-identical, plus the incremental-repair change-cut check that lets
  cached trees survive link deltas without recomputation.

Every scheduler routes through :class:`~repro.network.routing.PathCache`,
which calls these entry points; numpy is a hard dependency.  A weight
spec whose token the builders cannot lower is an error
(:class:`~repro.errors.TopologyError`), never a silent detour onto the
object kernel.  That kernel stays as the reference oracle the
equivalence tests and benchmarks compare against, for Yen's control
flow (which runs over this package's array searches), and for the
callers outside the schedulers' path: background-traffic injection,
optical grooming and the Steiner heuristics.
"""

from __future__ import annotations

from .snapshot import CsrSnapshot, get_snapshot, peek_snapshot
from .weights import weight_array
from .kernel import (
    array_edge_weight,
    array_search,
    k_shortest_paths_csr,
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
    "sssp_csr",
    "sssp_tree",
    "terminal_tree_csr",
    "tree_unaffected",
    "weight_array",
]

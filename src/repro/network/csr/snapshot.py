"""The CSR adjacency snapshot with a ledger-gathered state overlay.

A :class:`CsrSnapshot` is a flat mirror of one
:class:`~repro.network.graph.Network` at one ``topology_version``:

* **structure** — ``indptr``/``indices`` in compressed-sparse-row form
  over node indices, interned from node names in insertion order so the
  array kernel's neighbour iteration order matches ``Network.neighbors``
  (the reference oracle's order) exactly (the byte-identity contract depends on it);
* **per-edge state overlay** — numpy arrays (``latency``, ``capacity``,
  ``used``, ``failed``) indexed by directed-edge position, from which
  weight arrays are vectorised;
* **core** — the structure less its pendants (:class:`CsrCore`, from
  :meth:`CsrSnapshot.core`): what a vectorised solve sweeps, with its
  own edge endpoint arrays stacked for a batch of sources, built on
  first use and kept for the snapshot's lifetime.

The overlay is a gather from the network's
:class:`~repro.network.link.LinkLedger`: ``slot_of_pos`` maps each
directed-edge position to its ledger slot, and ``refresh()`` re-gathers
``used``, ``capacity`` and ``failed`` with one vector gather each when
the ledger epoch moved (and does nothing when it did not), so a
reserve/release churn of thousands of epochs never forces a rebuild.
Only structural growth (a new node or link — ``topology_version``
moved) discards the snapshot, mirroring the path cache's invalidation
rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ... import obs
from ..graph import Network


#: The slots a :meth:`CsrSnapshot.clone` shares with its source.
_STRUCTURE = (
    "topology_version",
    "n",
    "m",
    "names",
    "index",
    "indptr",
    "indices",
    "heads",
    "edge_pos",
    "slot_of_pos",
    "latency",
    "_core",
)


class CsrSnapshot:
    """Flat-array mirror of one network at one topology version."""

    __slots__ = (
        "network",
        "topology_version",
        "n",
        "m",
        "names",
        "index",
        "indptr",
        "indices",
        "heads",
        "edge_pos",
        "slot_of_pos",
        "latency",
        "capacity",
        "used",
        "failed",
        "_synced_epoch",
        "_core",
    )

    def __init__(self, network: Network) -> None:
        self.network = network
        self.topology_version = network.topology_version
        self.names: List[str] = network.node_names()
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        self.n = len(self.names)

        # Structure arrays as plain Python lists: the SSSP inner loop
        # indexes them element-wise, where list access beats ndarray
        # item access by a wide margin.
        indptr: List[int] = [0]
        indices: List[int] = []
        heads: List[int] = []
        self.edge_pos: Dict[Tuple[str, str], int] = {}
        slots: List[int] = []
        latency: List[float] = []
        index = self.index
        for u_i, u in enumerate(self.names):
            for v in network.neighbors(u):
                pos = len(indices)
                indices.append(index[v])
                heads.append(u_i)
                link = network.link(u, v)
                self.edge_pos[(u, v)] = pos
                slots.append(link.slot(u, v))
                latency.append(link.latency_ms)
            indptr.append(len(indices))
        self.indptr = indptr
        self.indices = indices
        self.heads = heads
        self.m = len(indices)
        self.slot_of_pos = np.asarray(slots, dtype=np.intp)
        self.latency = np.asarray(latency, dtype=np.float64)
        self._gather()
        self._core: Optional[CsrCore] = None

    def clone(self, network: Network) -> "CsrSnapshot":
        """This snapshot on ``network``, a :meth:`Network.clone` of its own.

        Everything but the overlay is shared: neither the structure nor
        the core changes within one topology version.  The overlay is
        gathered from ``network``'s own ledger.
        """
        twin = CsrSnapshot.__new__(CsrSnapshot)
        twin.network = network
        for name in _STRUCTURE:
            setattr(twin, name, getattr(self, name))
        twin._gather()
        return twin

    def core(self) -> "CsrCore":
        """The structure less its pendants, built on first use.

        Kept for the snapshot's lifetime: the structure cannot change
        within one topology version.
        """
        if self._core is None:
            self._core = CsrCore(self)
        return self._core

    def refresh(self) -> int:
        """Re-gather the overlay from the ledger if its epoch moved.

        Returns the number of directed edges re-gathered: 0 when the
        epoch is unchanged, ``m`` otherwise.  Must not be called after
        the network's topology version moved — :func:`get_snapshot`
        rebuilds instead.
        """
        if self.network.ledger.epoch == self._synced_epoch:
            return 0
        self._gather()
        return self.m

    def _gather(self) -> None:
        """Read ``used``, ``capacity`` and ``failed`` out of the ledger slots."""
        ledger = self.network.ledger
        slots = self.slot_of_pos
        self.used = np.frombuffer(ledger.used)[slots]
        self.capacity = np.frombuffer(ledger.capacity)[slots]
        self.failed = np.frombuffer(ledger.failed, dtype=bool)[slots]
        self._synced_epoch = ledger.epoch

    def residual_list(self) -> List[float]:
        """Residual capacity per directed-edge position, as a list.

        Each element equals ``link.residual_gbps(src, dst)`` for the
        edge at that position (same floats: capacity minus the recorded
        used sum), gathered in one vectorised subtraction for the
        schedulers' candidate scoring.
        """
        return (self.capacity - self.used).tolist()


class CsrCore:
    """A snapshot's structure less its pendants, in its own node indices.

    A *pendant* is a node with exactly one out-edge and one in-edge, both
    to the same neighbour, its *parent*, which is not such a node itself
    (so a two-node component stays whole).  Every server's access link
    makes one.  No path between two other nodes passes through a
    pendant, so a shortest-path solve can sweep the core alone and
    attach each pendant afterwards through its one in-edge; a graph
    without pendants is its own core.

    * ``nodes`` — the snapshot's indices of the core nodes, ascending;
      core node ``i`` is snapshot node ``nodes[i]``, and ``local`` maps
      back (-1 for a pendant);
    * ``edges`` — the snapshot's positions of the edges between two
      core nodes, ascending; ``n`` and ``m`` count the core's nodes and
      edges;
    * ``pendants``, ``parents``, ``in_edges`` — per pendant, its index,
      its parent's and the position of the parent's edge into it.  A
      pendant's one out-edge is its CSR row's only entry.
    """

    __slots__ = (
        "n",
        "m",
        "nodes",
        "local",
        "edges",
        "pendants",
        "parents",
        "in_edges",
        "_edge_arrays",
    )

    def __init__(self, snapshot: CsrSnapshot) -> None:
        n = snapshot.n
        heads = np.asarray(snapshot.heads, dtype=np.int64)
        tails = np.asarray(snapshot.indices, dtype=np.int64)
        indptr = np.asarray(snapshot.indptr, dtype=np.int64)
        in_degree = np.bincount(tails, minlength=n)
        leaves = np.flatnonzero((np.diff(indptr) == 1) & (in_degree == 1))
        neighbours = tails[indptr[leaves]]
        # A one-in-edge node's in-edge is the only position naming it.
        in_edge = np.zeros(n, dtype=np.int64)
        in_edge[tails] = np.arange(snapshot.m)
        in_edges = in_edge[leaves]
        keep = (heads[in_edges] == neighbours) & (neighbours != leaves)
        leaves = leaves[keep]
        neighbours = neighbours[keep]
        in_edges = in_edges[keep]
        is_leaf = np.zeros(n, dtype=bool)
        is_leaf[leaves] = True
        hung = ~is_leaf[neighbours]
        self.pendants = leaves[hung]
        self.parents = neighbours[hung]
        self.in_edges = in_edges[hung]
        pendant = np.zeros(n, dtype=bool)
        pendant[self.pendants] = True
        self.nodes = np.flatnonzero(~pendant)
        self.n = self.nodes.size
        self.local = np.full(n, -1, dtype=np.int64)
        self.local[self.nodes] = np.arange(self.n)
        self.edges = np.flatnonzero(~(pendant[heads] | pendant[tails]))
        self.m = self.edges.size
        self._edge_arrays = (
            self.local[heads[self.edges]],
            self.local[tails[self.edges]],
        )

    def edge_arrays(self, rows: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """``(heads, tails)`` per core edge, as core node indices (int64).

        ``rows`` stacks that many copies of the core: copy ``r`` sits at
        positions ``r * m`` onwards with its node indices offset by
        ``r * n``, the block-diagonal graph over which a batched solve
        sweeps all its sources at once (copy 0 is the core itself).
        Built for the most rows asked for so far; fewer rows are a
        prefix of those arrays.
        """
        size = rows * self.m
        heads, tails = self._edge_arrays
        if heads.size < size:
            offsets = (np.arange(rows, dtype=np.int64) * self.n)[:, None]
            heads = (heads[: self.m] + offsets).ravel()
            tails = (tails[: self.m] + offsets).ravel()
            self._edge_arrays = heads, tails
        return heads[:size], tails[:size]


def get_snapshot(network: Network) -> CsrSnapshot:
    """The network's current snapshot: refreshed, rebuilt if structure grew."""
    snapshot: Optional[CsrSnapshot] = network._csr_snapshot
    if (
        snapshot is None
        or snapshot.topology_version != network.topology_version
    ):
        with obs.span("csr.rebuild", nodes=network.node_count):
            snapshot = CsrSnapshot(network)
        obs.inc("csr.rebuild")
        network._csr_snapshot = snapshot
    else:
        if snapshot.refresh():
            obs.inc("csr.refresh")
    return snapshot

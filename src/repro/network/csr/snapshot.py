"""The CSR adjacency snapshot with a dirty-link state overlay.

A :class:`CsrSnapshot` is a flat mirror of one
:class:`~repro.network.graph.Network` at one ``topology_version``:

* **structure** — ``indptr``/``indices`` in compressed-sparse-row form
  over node indices, interned from node names in insertion order so the
  array kernel's neighbour iteration order matches the object kernel's
  adjacency order exactly (the byte-identity contract depends on it);
* **per-edge state overlay** — numpy arrays (``latency``, ``capacity``,
  ``used``, ``failed``) indexed by directed-edge position, from which
  weight arrays are vectorised.

The overlay refreshes *in place*: every :class:`~repro.network.link.Link`
of the snapshotted network gets the snapshot's dirty set attached, and
each mutation adds the link to it.  ``refresh()`` drains the set and
rewrites only the touched rows, so a reserve/release churn of thousands
of epochs never forces a rebuild.  Only structural growth (a new node or
link — ``topology_version`` moved) discards the snapshot, mirroring the
path cache's invalidation rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ... import obs
from ..graph import Network
from ..link import Link


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
        "latency",
        "capacity",
        "used",
        "failed",
        "_positions",
        "_dirty",
        "_synced_epoch",
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
        # link -> [(position, src_name, dst_name), ...] for dirty refresh.
        self._positions: Dict[Link, List[Tuple[int, str, str]]] = {}
        latency: List[float] = []
        capacity: List[float] = []
        used: List[float] = []
        failed: List[bool] = []
        index = self.index
        for u_i, u in enumerate(self.names):
            for v in network.neighbors(u):
                pos = len(indices)
                indices.append(index[v])
                heads.append(u_i)
                link = network.link(u, v)
                self.edge_pos[(u, v)] = pos
                self._positions.setdefault(link, []).append((pos, u, v))
                latency.append(link.latency_ms)
                capacity.append(link.capacity_gbps)
                used.append(link.used_gbps(u, v))
                failed.append(link.failed)
            indptr.append(len(indices))
        self.indptr = indptr
        self.indices = indices
        self.heads = heads
        self.m = len(indices)
        self.latency = np.asarray(latency, dtype=np.float64)
        self.capacity = np.asarray(capacity, dtype=np.float64)
        self.used = np.asarray(used, dtype=np.float64)
        self.failed = np.asarray(failed, dtype=bool)

        # Attach the dirty set to every link so future mutations report
        # themselves; links added later bump topology_version, which
        # discards this snapshot wholesale.
        self._dirty: set = set()
        for link in self._positions:
            link._dirty = self._dirty
        self._synced_epoch = network.epoch

    def refresh(self) -> int:
        """Drain the dirty set, rewriting touched overlay rows in place.

        Returns the number of links refreshed.  Must not be called after
        the network's topology version moved — :func:`get_snapshot`
        rebuilds instead.
        """
        network = self.network
        if network.epoch == self._synced_epoch:
            return 0
        touched = len(self._dirty)
        if touched:
            used = self.used
            failed = self.failed
            capacity = self.capacity
            for link in self._dirty:
                down = link.failed
                cap = link.capacity_gbps
                for pos, src, dst in self._positions[link]:
                    used[pos] = link.used_gbps(src, dst)
                    failed[pos] = down
                    capacity[pos] = cap
            self._dirty.clear()
        self._synced_epoch = network.epoch
        return touched

    def residual_list(self) -> List[float]:
        """Residual capacity per directed-edge position, as a list.

        Each element equals ``link.residual_gbps(src, dst)`` for the
        edge at that position (same floats: capacity minus the recorded
        used sum), gathered in one vectorised subtraction for the
        schedulers' candidate scoring.
        """
        return (self.capacity - self.used).tolist()


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
        refreshed = snapshot.refresh()
        if refreshed:
            obs.inc("csr.refresh_links", refreshed)
    return snapshot


def peek_snapshot(network: Network) -> Optional[CsrSnapshot]:
    """The attached snapshot if one exists (stale or not), else ``None``."""
    return network._csr_snapshot

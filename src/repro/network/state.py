"""Network-state snapshots for the orchestrator's telemetry loop.

The paper's orchestrator "reports networking conditions to the database".
:class:`NetworkState` is that report: an immutable snapshot of per-direction
utilisation that the database stores and the schedulers may consult without
touching the live network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .graph import Network


@dataclass(frozen=True)
class LinkUtilisation:
    """Utilisation of one direction of one link at snapshot time."""

    src: str
    dst: str
    capacity_gbps: float
    used_gbps: float

    @property
    def residual_gbps(self) -> float:
        return self.capacity_gbps - self.used_gbps

    @property
    def utilisation(self) -> float:
        return self.used_gbps / self.capacity_gbps


@dataclass(frozen=True)
class NetworkState:
    """A point-in-time view of every directed edge's load.

    Attributes:
        time_ms: simulated time of the snapshot.
        links: per directed edge utilisation records.
    """

    time_ms: float
    links: Tuple[LinkUtilisation, ...]

    @classmethod
    def capture(cls, network: Network, time_ms: float = 0.0) -> "NetworkState":
        """Snapshot the live network."""
        records: List[LinkUtilisation] = []
        for link in network.links():
            for src, dst in ((link.u, link.v), (link.v, link.u)):
                records.append(
                    LinkUtilisation(
                        src=src,
                        dst=dst,
                        capacity_gbps=link.capacity_gbps,
                        used_gbps=link.used_gbps(src, dst),
                    )
                )
        return cls(time_ms=time_ms, links=tuple(records))

    def as_dict(self) -> Dict[Tuple[str, str], LinkUtilisation]:
        """Index the snapshot by directed edge."""
        return {(rec.src, rec.dst): rec for rec in self.links}

    @property
    def total_used_gbps(self) -> float:
        """Summed reserved rate over all directed edges."""
        return sum(rec.used_gbps for rec in self.links)

    @property
    def max_utilisation(self) -> float:
        """The most loaded directed edge's utilisation (0.0 if no links)."""
        if not self.links:
            return 0.0
        return max(rec.utilisation for rec in self.links)

    def hot_links(self, threshold: float = 0.8) -> List[LinkUtilisation]:
        """Directed edges at or above ``threshold`` utilisation."""
        return [rec for rec in self.links if rec.utilisation >= threshold]


def node_utilisations(network: Network, node: str) -> Dict[Tuple[str, str], float]:
    """Utilisation of every directed edge incident to ``node``.

    The hub-congestion probe scale benchmarks use: on large topologies a
    full :meth:`NetworkState.capture` walks every link, while a hub's
    neighbourhood is a few rows.  The rates come from the CSR snapshot's
    overlay arrays, gathered from the network's link ledger at the
    current epoch (the same slots ``link.used_gbps`` and
    ``link.capacity_gbps`` read).
    """
    network.node(node)
    from . import csr

    snapshot = csr.get_snapshot(network)
    i = snapshot.index[node]
    utilisation = (snapshot.used / snapshot.capacity).tolist()
    out: Dict[Tuple[str, str], float] = {}
    for pos in range(snapshot.indptr[i], snapshot.indptr[i + 1]):
        neighbor = snapshot.names[snapshot.indices[pos]]
        out[(node, neighbor)] = utilisation[pos]
        out[(neighbor, node)] = utilisation[snapshot.edge_pos[(neighbor, node)]]
    return out

"""The :class:`Network` container: nodes + links + their link-state ledger.

``Network`` is deliberately a thin, explicit adjacency structure rather
than a wrapper over an external graph library: the schedulers need exact
control over per-direction residual capacity, owner-tagged reservations,
and deterministic iteration order (insertion order everywhere), all of
which are easier to guarantee in ~200 lines than to retrofit.  Link
state lives in the network's one :class:`~repro.network.link.LinkLedger`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import CapacityError, TopologyError
from .link import Link, LinkLedger
from .node import Node, NodeKind


class Network:
    """A topology of named nodes joined by capacitated bidirectional links.

    Nodes and links iterate in insertion order, which keeps every algorithm
    in :mod:`repro.network.paths` deterministic without extra sorting.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        # The state of every link, and the epoch that moves with it.
        self.ledger = LinkLedger()
        # Structure counter: bumped when nodes/links are *added*.  The
        # epoch covers state changes on existing links, but a new link
        # offers paths no cached search ever read, so the routing cache
        # must key on structure separately.
        self._topology_version = 0
        # Lazily attached by repro.network.routing.get_cache().
        self._path_cache = None
        # Lazily attached by repro.network.csr.get_snapshot(): the flat
        # array mirror of this topology, re-gathered from the ledger when
        # the epoch moved and rebuilt when topology_version moves.
        self._csr_snapshot = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        kind: NodeKind = NodeKind.ROUTER,
        *,
        aggregation_capable: "bool | None" = None,
        **attrs: object,
    ) -> Node:
        """Create and register a node.

        Raises:
            TopologyError: if a node with this name already exists.
        """
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        node = Node(
            name=name,
            kind=kind,
            aggregation_capable=aggregation_capable,
            attrs=dict(attrs),
        )
        self._nodes[name] = node
        self._adjacency[name] = []
        self._topology_version += 1
        self.ledger.epoch += 1
        return node

    def add_link(
        self,
        u: str,
        v: str,
        capacity_gbps: float,
        *,
        distance_km: float = 10.0,
        latency_ms: "float | None" = None,
    ) -> Link:
        """Create and register an undirected link between existing nodes.

        Raises:
            TopologyError: if an endpoint is unknown or the link exists.
        """
        for endpoint in (u, v):
            if endpoint not in self._nodes:
                raise TopologyError(f"unknown node {endpoint!r} for link {u}-{v}")
        if self._key(u, v) in self._links:
            raise TopologyError(f"duplicate link {u}-{v}")
        link = Link(
            u,
            v,
            capacity_gbps,
            distance_km=distance_km,
            latency_ms=latency_ms,
            ledger=self.ledger,
        )
        self.ledger.epoch += 1
        self._topology_version += 1
        self._links[self._key(u, v)] = link
        self._adjacency[u].append(v)
        self._adjacency[v].append(u)
        return link

    @staticmethod
    def _key(u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def epoch(self) -> int:
        """Monotone counter of all state mutations across the network.

        The ledger's epoch: bumped whenever any link's reservations,
        capacity or failure state change (and on topology growth).  Two
        equal epochs guarantee that *no* ledger slot changed in between,
        which lets the routing cache and the CSR snapshot skip all work.
        """
        return self.ledger.epoch

    @property
    def topology_version(self) -> int:
        """Monotone counter of structural growth (nodes/links added).

        Separate from :attr:`epoch`: an equal epoch proves that no
        *existing* link changed, but a newly added link offers paths no
        cached computation ever read, so the routing cache invalidates
        on any version change.
        """
        return self._topology_version

    def has_reservations(self, owner: str) -> bool:
        """True when ``owner`` holds rate anywhere in the network."""
        return self.ledger.holds_anywhere(owner)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        return len(self._links)

    def node(self, name: str) -> Node:
        """Look up a node by name (raises TopologyError if unknown)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def nodes(self, kind: Optional[NodeKind] = None) -> Iterator[Node]:
        """Iterate nodes in insertion order, optionally filtered by kind."""
        for node in self._nodes.values():
            if kind is None or node.kind is kind:
                yield node

    def node_names(self, kind: Optional[NodeKind] = None) -> List[str]:
        """Names of nodes in insertion order, optionally filtered by kind."""
        return [node.name for node in self.nodes(kind)]

    def servers(self) -> List[str]:
        """Names of nodes that may host AI models."""
        return [node.name for node in self._nodes.values() if node.can_host_models]

    def links(self) -> Iterator[Link]:
        """Iterate links in insertion order."""
        yield from self._links.values()

    def link(self, u: str, v: str) -> Link:
        """The link between ``u`` and ``v`` (raises TopologyError if absent)."""
        try:
            return self._links[self._key(u, v)]
        except KeyError:
            raise TopologyError(f"no link between {u!r} and {v!r}") from None

    def has_link(self, u: str, v: str) -> bool:
        return self._key(u, v) in self._links

    def neighbors(self, name: str) -> List[str]:
        """Adjacent node names in link-insertion order."""
        if name not in self._adjacency:
            raise TopologyError(f"unknown node {name!r}")
        return list(self._adjacency[name])

    def degree(self, name: str) -> int:
        return len(self.neighbors(name))

    def is_connected(self) -> bool:
        """True when every node is reachable from the first one."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    # Capacity operations (delegate to links, path-level helpers)
    # ------------------------------------------------------------------
    def residual_gbps(self, src: str, dst: str) -> float:
        """Free rate on the directed edge ``src -> dst``."""
        return self.link(src, dst).residual_gbps(src, dst)

    def reserve_edge(self, src: str, dst: str, gbps: float, owner: str) -> None:
        """Reserve rate on one directed edge under ``owner``."""
        self.link(src, dst).reserve(src, dst, gbps, owner)

    def reserve_path(self, path: List[str], gbps: float, owner: str) -> None:
        """Reserve rate on every directed edge of ``path`` atomically.

        Either every hop is reserved or none is: an unknown hop fails
        before anything is reserved, and when a hop lacks capacity the
        hops already reserved are put back, last first, to exactly what
        ``owner`` held on them before the call.

        Raises:
            TopologyError: if two consecutive path nodes share no link.
            CapacityError: if any hop lacks capacity.
        """
        hops = [(self.link(src, dst), src, dst) for src, dst in zip(path, path[1:])]
        reserved: List[Tuple[Link, str, str, float]] = []
        try:
            for link, src, dst in hops:
                held = link.owner_gbps(src, dst, owner)
                link.reserve(src, dst, gbps, owner)
                reserved.append((link, src, dst, held))
        except CapacityError:
            for link, src, dst, held in reversed(reserved):
                link.restore_owner_gbps(src, dst, owner, held)
            raise

    def release_owner(self, owner: str) -> float:
        """Release everything ``owner`` holds anywhere in the network."""
        held = self.ledger.links_of(owner)
        # Release in link insertion order (not reservation order) so the
        # float total sums in the same order as a full-table scan would.
        held.sort(key=lambda link: link._slot)
        return sum((link.release_owner(owner) for link in held), 0.0)

    def owner_total_gbps(self, owner: str) -> float:
        """Summed directed-edge rate held by ``owner`` across the network."""
        total = 0.0
        for link in self._links.values():
            total += link.owner_gbps(link.u, link.v, owner)
            total += link.owner_gbps(link.v, link.u, owner)
        return total

    def total_reserved_gbps(self) -> float:
        """Summed reserved rate over all directed edges (the paper's
        "consumed bandwidth" metric).

        Added slot by slot — link insertion order, ``u -> v`` before
        ``v -> u`` — so the float is the same on every Python version.
        """
        total = 0.0
        for used in self.ledger.used:
            total += used
        return total

    def edge_latency_ms(self, src: str, dst: str) -> float:
        """One-way propagation latency of the directed edge."""
        return self.link(src, dst).latency_ms

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail_link(self, u: str, v: str) -> Link:
        """Mark the link down: no new reservations, infinite route weight.

        Existing reservations stay recorded (the owners' traffic is what
        the failure disrupts); the orchestrator is responsible for moving
        affected tasks — see ``Orchestrator.handle_link_failure``.
        """
        link = self.link(u, v)
        link.failed = True
        return link

    def restore_link(self, u: str, v: str) -> Link:
        """Bring a failed link back into service."""
        link = self.link(u, v)
        link.failed = False
        return link

    def failed_links(self) -> List[Link]:
        """Currently failed links in insertion order."""
        return [link for link in self._links.values() if link.failed]

    def fail_node(self, name: str) -> Node:
        """Take a device down: every incident link stops carrying traffic.

        Incident links are marked via an endpoint-down *count* rather
        than the span-failure flag, so node and link fault processes
        compose: a span failed independently during the outage stays
        failed after the node repairs, and a link between two down nodes
        only recovers when both are back.  Failing an already-down node
        is a no-op.
        """
        node = self.node(name)
        if node.failed:
            return node
        node.failed = True
        for neighbor in self._adjacency[name]:
            self.link(name, neighbor).mark_endpoint_down()
        return node

    def restore_node(self, name: str) -> Node:
        """Bring a downed device back; restoring an up node is a no-op."""
        node = self.node(name)
        if not node.failed:
            return node
        node.failed = False
        for neighbor in self._adjacency[name]:
            self.link(name, neighbor).mark_endpoint_up()
        return node

    def inter_switch_links(self) -> List[Tuple[str, str]]:
        """Sorted (u, v) pairs of links between switching devices.

        Server attachment links are excluded — this is the canonical
        eligibility rule shared by the static link-failure model and the
        time-driven fault process: a dead attachment link just deletes
        the server from the scenario (a placement question), and node
        faults already model whole-server outages.
        """
        return sorted(
            (link.u, link.v)
            for link in self._links.values()
            if self._nodes[link.u].kind is not NodeKind.SERVER
            and self._nodes[link.v].kind is not NodeKind.SERVER
        )

    def owners_on_link(self, u: str, v: str) -> List[str]:
        """Reservation owners (both directions) on one link, sorted."""
        return sorted(self.link(u, v).owners())

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def copy_topology(self) -> "Network":
        """A fresh network with the same nodes/links and *no* reservations.

        Link *failure state* is carried over: a scratch copy used for
        what-if scheduling (e.g. the re-scheduling policy) must not treat
        dead links as healthy.
        """
        clone = Network(name=self.name)
        for node in self._nodes.values():
            clone.add_node(
                node.name,
                node.kind,
                aggregation_capable=node.aggregation_capable,
                **node.attrs,
            )
        for link in self._links.values():
            cloned = clone.add_link(
                link.u,
                link.v,
                link.capacity_gbps,
                distance_km=link.distance_km,
                latency_ms=link.latency_ms,
            )
            cloned.failed = link.failed
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, nodes={self.node_count}, "
            f"links={self.link_count})"
        )

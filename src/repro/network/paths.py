"""Routing results and the finishers the CSR kernel shares with its oracle.

Weights are functions over directed edges (``weight(src, dst) ->
float``).  A weight of ``math.inf`` marks an edge as unusable (e.g. no
residual capacity), letting callers express admission control without
mutating the topology.  :func:`latency_weight` and :func:`hop_weight`
are the scalar forms of the latency and hop specs the CSR kernel
lowers to arrays; the reference oracle in ``tests/oracle.py`` routes
on them directly.

The searches themselves live in :mod:`repro.network.csr`.  What stays
here is the result types (:class:`PathResult`, :class:`TreeResult`,
:class:`ShortestPathTree`), Yen's control flow
(:func:`k_shortest_paths`, driven by an injected point-to-point
search), and :func:`tree_from_metric_closure`: the flexible scheduler's
MST over the *metric closure* of the terminal set (global + local
models), expanded back to physical hops — the classic 2-approximation
of the Steiner tree, matching the poster's "find MSTs between the
global model and local models on the auxiliary graph".
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from ..errors import NoPathError, TopologyError
from .graph import Network

WeightFn = Callable[[str, str], float]


def latency_weight(network: Network) -> WeightFn:
    """Weight function returning one-way propagation latency in ms.

    Failed links weigh ``inf`` so routing transparently avoids them.
    """

    def weight(src: str, dst: str) -> float:
        link = network.link(src, dst)
        if link.failed:
            return math.inf
        return link.latency_ms

    return weight


def hop_weight(network: Network) -> WeightFn:
    """Weight function counting hops (every live edge costs 1)."""

    def weight(src: str, dst: str) -> float:
        if network.link(src, dst).failed:
            return math.inf
        return 1.0

    return weight


@dataclass(frozen=True)
class PathResult:
    """A routed path and its weight under the query's weight function.

    Attributes:
        nodes: node names from source to destination inclusive.
        weight: sum of directed-edge weights along the path.
    """

    nodes: Tuple[str, ...]
    weight: float

    @property
    def hops(self) -> int:
        """Number of edges traversed."""
        return len(self.nodes) - 1

    @property
    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """The directed edges of the path in order."""
        return tuple(zip(self.nodes, self.nodes[1:]))


@dataclass(frozen=True)
class TreeResult:
    """A tree embedded in the network, rooted for broadcast/upload use.

    Attributes:
        root: the root node (the global model's node).
        parent: mapping child -> parent covering every non-root tree node.
        weight: total weight of the tree's directed edges (child->parent
            orientation) under the query's weight function.
    """

    root: str
    parent: Dict[str, str]
    weight: float

    @property
    def nodes(self) -> Set[str]:
        """All nodes touched by the tree (including the root)."""
        names = set(self.parent)
        names.update(self.parent.values())
        names.add(self.root)
        return names

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """Tree edges as (child, parent) pairs in deterministic order."""
        return sorted(self.parent.items())

    def children(self) -> Dict[str, List[str]]:
        """Mapping parent -> sorted children."""
        result: Dict[str, List[str]] = {}
        for child, parent in self.parent.items():
            result.setdefault(parent, []).append(child)
        for kids in result.values():
            kids.sort()
        return result

    def path_to_root(self, node: str) -> List[str]:
        """Node names from ``node`` up to (and including) the root."""
        path = [node]
        seen = {node}
        while path[-1] != self.root:
            nxt = self.parent.get(path[-1])
            if nxt is None:
                raise TopologyError(f"node {node!r} is not connected to root {self.root!r}")
            if nxt in seen:
                raise TopologyError(f"cycle detected while walking {node!r} to root")
            seen.add(nxt)
            path.append(nxt)
        return path

    def depth(self, node: str) -> int:
        """Number of edges between ``node`` and the root."""
        return len(self.path_to_root(node)) - 1


class ShortestPathTree:
    """A full Dijkstra tree from one source under one weight function.

    Defined here (not in :mod:`repro.network.routing`, which re-exports
    it) so the array kernel (:mod:`repro.network.csr`) can build one
    without importing the cache layer.

    The tree is array-backed: ``dist[i]`` and ``prev[i]`` describe the
    node ``names[i]`` (``prev`` holds a node index, ``-1`` for the
    source and for unreached nodes, whose ``dist`` is ``inf``).  Trees
    the CSR kernel builds share the snapshot's ``names``/``index``
    interning, so the change-cut
    (:func:`~repro.network.csr.tree_unaffected`) reads them by edge
    endpoint index; the sequences are Python tuples or 1-D numpy
    arrays, whichever the solver produced.  :meth:`path_to`,
    :meth:`reaches` and :meth:`distance_to` read the arrays directly;
    the :attr:`distance`/:attr:`previous` mappings are built only on
    request, over the reached nodes in index order.

    Two trees are equal when their sources and mappings are equal.
    """

    __slots__ = ("source", "names", "index", "dist", "prev", "_source_i")

    def __init__(
        self,
        source: str,
        names: Sequence[str],
        index: Dict[str, int],
        dist: Sequence[float],
        prev: Sequence[int],
    ) -> None:
        self.source = source
        self.names = names
        self.index = index
        self.dist = dist
        self.prev = prev
        self._source_i = index[source]

    @property
    def distance(self) -> Dict[str, float]:
        """Reached node -> least weight from the source (built on request)."""
        names = self.names
        dist = self.dist
        source_i = self._source_i
        return {
            names[i]: float(dist[i])
            for i, p in enumerate(self.prev)
            if p >= 0 or i == source_i
        }

    @property
    def previous(self) -> Dict[str, str]:
        """Reached non-source node -> its predecessor (built on request)."""
        names = self.names
        return {names[i]: names[p] for i, p in enumerate(self.prev) if p >= 0}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShortestPathTree):
            return NotImplemented
        return (
            self.source == other.source
            and self.distance == other.distance
            and self.previous == other.previous
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ShortestPathTree(source={self.source!r}, "
            f"distance={self.distance!r}, previous={self.previous!r})"
        )

    def _reached_index(self, node: str) -> int:
        """The node's index when the tree reaches it, else -1."""
        i = self.index.get(node)
        if i is None:
            return -1
        if i == self._source_i or self.prev[i] >= 0:
            return i
        return -1

    def reaches(self, destination: str) -> bool:
        return self._reached_index(destination) >= 0

    def distance_to(self, destination: str) -> float:
        """Least weight from the source, ``inf`` when unreached."""
        i = self._reached_index(destination)
        return math.inf if i < 0 else float(self.dist[i])

    def path_to(self, destination: str) -> PathResult:
        """Extract the shortest path to ``destination``.

        Identical to a point-to-point search from the source that stops
        once ``destination`` is settled, on the same network state.

        Raises:
            NoPathError: if the destination was unreachable.
        """
        if destination == self.source:
            return PathResult(nodes=(self.source,), weight=0.0)
        target = self._reached_index(destination)
        if target < 0:
            raise NoPathError(self.source, destination)
        prev = self.prev
        names = self.names
        source_i = self._source_i
        nodes = [destination]
        i = target
        while i != source_i:
            i = prev[i]
            nodes.append(names[i])
        nodes.reverse()
        return PathResult(nodes=tuple(nodes), weight=float(self.dist[target]))


def k_shortest_paths(
    source: str,
    destination: str,
    k: int,
    weight: WeightFn,
    *,
    search: Callable[..., PathResult],
) -> List[PathResult]:
    """Yen's algorithm: up to ``k`` loop-free least-weight paths.

    Returns fewer than ``k`` paths when the graph does not contain that
    many distinct simple paths.

    ``search`` is the point-to-point solver used for the initial path
    and every spur search — ``search(src, dst, banned_edges,
    banned_nodes) -> PathResult``, which must skip every banned edge and
    every edge touching a banned node.  ``weight`` prices the root
    segments Yen prefixes to spur paths.  The CSR kernel drives this
    control flow with its array search
    (:func:`~repro.network.csr.kernel.array_search`).

    Raises:
        NoPathError: if not even one path exists.
    """
    if k <= 0:
        raise TopologyError(f"k must be > 0, got {k}")
    best = search(source, destination, set(), set())
    paths: List[PathResult] = [best]
    candidates: List[Tuple[float, int, PathResult]] = []
    counter = itertools.count()

    for _ in range(1, k):
        last = paths[-1]
        for spur_index in range(len(last.nodes) - 1):
            spur_node = last.nodes[spur_index]
            root_nodes = last.nodes[: spur_index + 1]

            banned_edges: Set[Tuple[str, str]] = set()
            for existing in paths:
                if existing.nodes[: spur_index + 1] == root_nodes and len(
                    existing.nodes
                ) > spur_index + 1:
                    banned_edges.add(
                        (existing.nodes[spur_index], existing.nodes[spur_index + 1])
                    )
            banned_nodes = set(root_nodes[:-1])

            try:
                spur_path = search(spur_node, destination, banned_edges, banned_nodes)
            except NoPathError:
                continue
            total_nodes = root_nodes[:-1] + spur_path.nodes
            root_cost = sum(
                weight(a, b) for a, b in zip(root_nodes, root_nodes[1:])
            )
            candidate = PathResult(
                nodes=tuple(total_nodes), weight=root_cost + spur_path.weight
            )
            if all(candidate.nodes != p.nodes for p in paths) and all(
                candidate.nodes != c[2].nodes for c in candidates
            ):
                heapq.heappush(
                    candidates, (candidate.weight, next(counter), candidate)
                )
        if not candidates:
            break
        _, _, chosen = heapq.heappop(candidates)
        paths.append(chosen)
    return paths


def tree_from_metric_closure(
    root: str,
    terminal_list: Sequence[str],
    closure: Dict[Tuple[str, str], PathResult],
    weight: WeightFn,
) -> TreeResult:
    """MST over a precomputed metric closure, expanded to physical hops.

    The second half of a terminal-tree construction: the path cache
    (:meth:`repro.network.routing.PathCache.terminal_tree`) feeds it a
    closure from cached single-source trees, the uncached CSR entry
    point (:func:`repro.network.csr.terminal_tree_csr`) one from
    early-exit solves, and the reference oracle one from its object
    searches, so all three produce byte-identical trees.  ``closure``
    must hold one :class:`PathResult` per ordered terminal pair
    ``(a, b)`` with ``a`` before ``b`` in ``terminal_list``; the reverse
    direction is derived by reversal.
    """

    def closure_path(a: str, b: str) -> PathResult:
        if (a, b) in closure:
            return closure[(a, b)]
        reverse = closure[(b, a)]
        return PathResult(nodes=tuple(reversed(reverse.nodes)), weight=reverse.weight)

    # Prim over the closure, starting at the root.  A pair's weight is
    # the same in both orientations, so pushes read it from whichever
    # one the closure holds.
    in_tree = {root}
    counter = itertools.count()
    frontier: List[Tuple[float, int, str, str]] = []

    def push(a: str) -> None:
        for b in terminal_list:
            if b in in_tree:
                continue
            path = closure.get((a, b))
            if path is None:
                path = closure[(b, a)]
            heapq.heappush(frontier, (path.weight, next(counter), b, a))

    push(root)
    closure_parent: Dict[str, str] = {}
    while frontier and len(in_tree) < len(terminal_list):
        cost, _tick, node, via = heapq.heappop(frontier)
        if math.isinf(cost):
            break
        if node in in_tree:
            continue
        in_tree.add(node)
        closure_parent[node] = via
        push(node)
    missing = [t for t in terminal_list if t not in in_tree]
    if missing:
        raise NoPathError(root, missing[0], f"terminal {missing[0]!r} unreachable")

    # Expand closure edges into physical hops, merging shared hops.
    parent: Dict[str, str] = {}

    def graft(path_nodes: Sequence[str]) -> None:
        """Attach ``path_nodes`` (terminal -> ... -> tree) walking rootward."""
        # path runs from an in-tree terminal to a new terminal; orient each
        # hop child->parent towards the root side (the first element).
        for towards_root, away in zip(path_nodes, path_nodes[1:]):
            if away == root:
                continue
            if away in parent or away == root:
                # already attached; keep the first (cheapest-first) parent
                continue
            parent[away] = towards_root

    # Expand closure edges in tree order so every graft starts from a node
    # that is already attached to the root.
    entry_order = [root]
    remaining = dict(closure_parent)
    while remaining:
        progressed = False
        for node, via in list(remaining.items()):
            if via in entry_order:
                entry_order.append(node)
                del remaining[node]
                progressed = True
        if not progressed:  # pragma: no cover - defensive
            raise TopologyError("closure parent structure is not a tree")

    for node in entry_order[1:]:
        via = closure_parent[node]
        path_nodes = closure_path(via, node).nodes  # via -> ... -> node
        graft(path_nodes)

    # Total weight: sum of child->parent directed-edge weights.
    total = sum(weight(child, par) for child, par in parent.items())
    tree = TreeResult(root=root, parent=parent, weight=total)
    # Sanity: every terminal must be in the tree.
    for t in terminal_list:
        tree.path_to_root(t)
    return tree


def path_latency_ms(network: Network, nodes: Iterable[str]) -> float:
    """Total one-way propagation latency along a node sequence."""
    sequence = list(nodes)
    return sum(
        network.edge_latency_ms(a, b) for a, b in zip(sequence, sequence[1:])
    )

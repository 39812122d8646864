"""Property-based tests (hypothesis) for the routing kernel.

The invariants the scheduler hot path leans on, checked on the
production entry points over random connected topologies with random
interleaved mutations:

* the terminal tree spans root and every terminal, and its weight never
  exceeds the sum of pairwise terminal shortest paths (the metric-MST
  bound its 2-approximation guarantee rests on);
* Yen's k-shortest paths are simple (loop-free) and in non-decreasing
  weight order, the first being the shortest path;
* routing is deterministic: repeated uncached calls return identical
  results;
* the epoch-keyed cache is transparent: any interleaving of reserve /
  release / fail / restore mutations leaves cached results byte-equal
  to a fresh computation by the reference oracle (``tests/oracle.py``);
* a cached single-source tree agrees with the oracle's point-to-point
  Dijkstra on every destination;
* the CSR array kernel is byte-identical to the oracle on every query,
  under any interleaving of mutations, and a lookup-repaired CSR
  cache entry equals recomputation from scratch;
* the terminal-tree finisher, reading the closure off the kernel's
  trees, equals the oracle's closure-dict finisher (same parent order,
  bit-equal weight, same ``NoPathError``) on both terminal-tree entry
  points, below and above the kernel's vectorised cut.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.errors import NoPathError
from repro.network import csr
from repro.network.csr import kernel
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import LatencyWeightSpec, PathCache, get_cache
from repro.network.paths import TreeResult
from tests.oracle import (
    closure_finisher,
    dijkstra,
    metric_closure,
    sssp,
    terminal_tree,
)


@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=8):
    """A small connected Network with random extra edges and distances."""
    n = draw(st.integers(min_nodes, max_nodes))
    net = Network("random")
    for i in range(n):
        net.add_node(f"n{i}", NodeKind.ROUTER)
    order = draw(st.permutations(list(range(n))))
    distances = st.floats(1.0, 100.0, allow_nan=False)
    for a, b in zip(order, order[1:]):
        net.add_link(f"n{a}", f"n{b}", 100.0, distance_km=draw(distances))
    candidates = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if not net.has_link(f"n{a}", f"n{b}")
    ]
    extra = (
        draw(st.lists(st.sampled_from(candidates), unique=True, max_size=8))
        if candidates
        else []
    )
    for a, b in extra:
        net.add_link(f"n{a}", f"n{b}", 100.0, distance_km=draw(distances))
    return net


@st.composite
def graphs_with_terminals(draw):
    net = draw(connected_graphs())
    names = net.node_names()
    root = draw(st.sampled_from(names))
    terminals = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True)
    )
    return net, root, terminals


def _tree(net, root, terminals):
    return get_cache(net).terminal_tree(root, terminals, LatencyWeightSpec(net))


class TestTerminalTreeInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graphs_with_terminals())
    def test_spans_all_terminals(self, case):
        net, root, terminals = case
        tree = _tree(net, root, terminals)
        for terminal in [root, *terminals]:
            path = tree.path_to_root(terminal)
            assert path[-1] == root
            for a, b in zip(path, path[1:]):
                assert net.has_link(a, b)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_terminals())
    def test_weight_bounded_by_pairwise_shortest_paths(self, case):
        """Tree weight <= sum over terminal pairs of shortest-path weight.

        The tree is an MST of the metric closure expanded with hop
        merging, so its weight is at most the closure MST's, which is at
        most the sum of all closure edges (each a pairwise shortest
        path).  Latency weights are symmetric, making the comparison
        well-defined.
        """
        net, root, terminals = case
        tree = _tree(net, root, terminals)
        spec = LatencyWeightSpec(net)
        nodes = list(dict.fromkeys([root, *terminals]))
        pairwise = sum(
            get_cache(net).shortest_path(a, b, spec).weight
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        )
        assert tree.weight <= pairwise + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_terminals())
    def test_deterministic_across_repeated_calls(self, case):
        net, root, terminals = case
        spec = LatencyWeightSpec(net)
        first = csr.terminal_tree_csr(net, root, terminals, spec)
        second = csr.terminal_tree_csr(net, root, terminals, spec)
        assert first.parent == second.parent
        assert first.weight == second.weight


class TestKShortestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.integers(1, 4))
    def test_loop_free_and_non_decreasing(self, net, k):
        names = net.node_names()
        source, destination = names[0], names[-1]
        spec = LatencyWeightSpec(net)
        paths = get_cache(net).k_shortest_paths(source, destination, k, spec)
        assert 1 <= len(paths) <= k
        assert paths[0].weight == pytest.approx(
            get_cache(net).shortest_path(source, destination, spec).weight
        )
        seen = set()
        for path in paths:
            assert path.nodes[0] == source and path.nodes[-1] == destination
            assert len(set(path.nodes)) == len(path.nodes)  # simple
            assert path.nodes not in seen  # distinct
            seen.add(path.nodes)
        for earlier, later in zip(paths, paths[1:]):
            assert later.weight >= earlier.weight - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(), st.integers(1, 3))
    def test_deterministic_across_repeated_calls(self, net, k):
        names = net.node_names()
        spec = LatencyWeightSpec(net)
        first = csr.k_shortest_paths_csr(net, names[0], names[-1], k, spec)
        second = csr.k_shortest_paths_csr(net, names[0], names[-1], k, spec)
        assert first == second


class TestSsspAgreement:
    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    def test_sssp_matches_dijkstra_everywhere(self, net):
        spec = LatencyWeightSpec(net)
        weight = spec.weight_fn()
        names = net.node_names()
        source = names[0]
        tree = PathCache(net).sssp(source, spec)
        for destination in names:
            assert tree.path_to(destination) == dijkstra(
                net, source, destination, weight
            )


#: One network mutation of the cache-transparency state machine.
_mutations = st.sampled_from(["reserve", "release", "fail", "restore"])


class TestCacheTransparency:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_terminals(), st.lists(st.tuples(_mutations, st.randoms(use_true_random=False)), max_size=6))
    def test_cached_equals_fresh_under_mutations(self, case, script):
        """Interleave mutations with queries: cache output == fresh output."""
        net, root, terminals = case
        cache = PathCache(net)
        links = list(net.links())
        owners = ["w1", "w2"]
        for action, rng in script:
            link = rng.choice(links)
            owner = rng.choice(owners)
            if action == "reserve":
                free = link.residual_gbps(link.u, link.v)
                if not link.failed and free > 1.0:
                    link.reserve(link.u, link.v, free / 2.0, owner)
            elif action == "release":
                link.release_owner(owner)
            elif action == "fail":
                net.fail_link(link.u, link.v)
            else:
                net.restore_link(link.u, link.v)

            builder = AuxiliaryGraphBuilder(net, demand_gbps=2.0, owner="q")
            spec = LatencyWeightSpec(net)
            try:
                cached_tree = cache.terminal_tree(root, terminals, builder)
            except Exception as exc:  # NoPathError under failures
                with pytest.raises(type(exc)):
                    terminal_tree(net, root, terminals, builder.weight_fn())
            else:
                fresh = terminal_tree(net, root, terminals, builder.weight_fn())
                assert cached_tree.parent == fresh.parent
                assert cached_tree.weight == fresh.weight
            try:
                cached_path = cache.shortest_path(root, terminals[0], spec)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    dijkstra(net, root, terminals[0])
            else:
                assert cached_path == dijkstra(net, root, terminals[0])


def _apply_mutation(net, links, action, rng, owners=("w1", "w2")):
    """One step of the mutation state machine (shared with cache tests)."""
    link = rng.choice(links)
    owner = rng.choice(list(owners))
    if action == "reserve":
        free = link.residual_gbps(link.u, link.v)
        if not link.failed and free > 1.0:
            link.reserve(link.u, link.v, free / 2.0, owner)
    elif action == "release":
        link.release_owner(owner)
    elif action == "fail":
        net.fail_link(link.u, link.v)
    else:
        net.restore_link(link.u, link.v)


class TestCsrObjectEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        graphs_with_terminals(),
        st.lists(
            st.tuples(_mutations, st.randoms(use_true_random=False)),
            max_size=6,
        ),
    )
    def test_csr_matches_object_under_mutations(self, case, script):
        """Array and object kernels stay byte-identical through churn."""
        net, root, terminals = case
        links = list(net.links())
        for action, rng in script:
            _apply_mutation(net, links, action, rng)
            spec = LatencyWeightSpec(net)
            array_tree = csr.sssp_csr(net, root, spec)
            object_tree = sssp(net, root, spec.weight_fn())
            assert array_tree.distance == object_tree.distance
            assert array_tree.previous == object_tree.previous
            builder = AuxiliaryGraphBuilder(net, demand_gbps=2.0, owner="q")
            try:
                array_t = csr.terminal_tree_csr(net, root, terminals, builder)
            except NoPathError:
                with pytest.raises(NoPathError):
                    terminal_tree(net, root, terminals, builder.weight_fn())
            else:
                fresh = terminal_tree(
                    net, root, terminals, builder.weight_fn()
                )
                assert array_t.parent == fresh.parent
                assert array_t.weight == fresh.weight

    @settings(max_examples=30, deadline=None)
    @given(
        graphs_with_terminals(),
        st.lists(
            st.tuples(_mutations, st.randoms(use_true_random=False)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_incremental_repair_matches_from_scratch(self, case, script):
        """A lookup-repaired CSR entry answers like a fresh computation.

        Primes the cache with CSR trees, then after every mutation looks
        each source up again (the lookup validates, repairs or
        recomputes) and checks the answer against an uncached object
        SSSP.
        """
        net, root, terminals = case
        cache = PathCache(net)
        spec = LatencyWeightSpec(net)
        sources = list(dict.fromkeys([root, *terminals]))
        for source in sources:
            cache.sssp(source, spec)
        links = list(net.links())
        for action, rng in script:
            _apply_mutation(net, links, action, rng)
            before = cache.stats.as_dict()
            for source in sources:
                cached = cache.sssp(source, spec)
                fresh = sssp(net, source, spec.weight_fn())
                assert cached.distance == fresh.distance
                assert cached.previous == fresh.previous
            after = cache.stats.as_dict()
            moved = {name: after[name] - before[name] for name in after}
            assert moved["hits"] + moved["misses"] == len(sources)
            assert moved["repairs"] <= moved["revalidations"] <= len(sources)


#: Edge weights for the finisher identity: few distinct values, so
#: equal-weight ties, zero-weight edges and unusable (inf) edges are
#: common rather than vanishingly rare.
_DRAWN_WEIGHTS = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0, math.inf]

#: Pendant leaves that lift a padded snapshot over the vectorised cut.
_PAD_LEAVES = kernel.VECTOR_MIN_EDGES // 2 + 8


@st.composite
def drawn_terminal_cases(draw, vector):
    """A random graph with drawn directed-edge weights and 1..8 terminals.

    The graph may be disconnected.  ``vector`` hangs a hub with
    :data:`_PAD_LEAVES` pendant leaves off it, so the snapshot has at
    least ``VECTOR_MIN_EDGES`` directed edges while the core solve stays
    small.  Terminals may repeat and include the root.
    """
    n = draw(st.integers(2, 12))
    net = Network("drawn")
    for i in range(n):
        net.add_node(f"n{i}", NodeKind.ROUTER)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)):
        net.add_link(f"n{a}", f"n{b}", 100.0)
    names = net.node_names()
    if vector:
        net.add_node("hub", NodeKind.ROUTER)
        net.add_link("hub", draw(st.sampled_from(names)), 100.0)
        for i in range(_PAD_LEAVES):
            net.add_node(f"leaf{i}", NodeKind.ROUTER)
            net.add_link(f"leaf{i}", "hub", 100.0)
        names = names + ["hub", "leaf0", "leaf1", "leaf2"]
    rng = draw(st.randoms(use_true_random=False))
    weights = [rng.choice(_DRAWN_WEIGHTS) for _ in range(csr.get_snapshot(net).m)]
    size = min(draw(st.integers(1, 8)), len(names))
    distinct = draw(
        st.lists(st.sampled_from(names), unique=True, min_size=size, max_size=size)
    )
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=3))
    terminals = draw(st.permutations(distinct[1:] + repeats))
    return net, weights, distinct[0], terminals


class _DrawnSpec:
    """A shareable spec whose token the patched lowering maps to drawn weights."""

    def cache_token(self):
        return ("drawn",)

    def shareable(self):
        return True


def _outcome(build):
    """A tree as its exact observable parts, or the NoPathError raised."""
    try:
        tree = build()
    except NoPathError as exc:
        return ("no path", exc.source, exc.destination, str(exc))
    return (tree.root, list(tree.parent.items()), tree.weight.hex())


def _oracle_outcome(net, weights, root, terminals):
    """The oracle's closure-dict finisher over object SSSP trees."""
    terminal_list = list(dict.fromkeys([root, *terminals]))
    if len(terminal_list) == 1:
        return _outcome(lambda: TreeResult(root=root, parent={}, weight=0.0))
    snapshot = csr.get_snapshot(net)
    weight = csr.array_edge_weight(snapshot, weights)
    trees = (sssp(net, a, weight) for a in terminal_list[:-1])
    return _outcome(
        lambda: closure_finisher(
            root, terminal_list, metric_closure(terminal_list, trees), weight
        )
    )


class TestFinisherMatchesClosureOracle:
    """Trees read off the kernel's SSSP trees == the closure-dict oracle."""

    @pytest.mark.parametrize("entry", ["cached", "uncached"])
    @pytest.mark.parametrize("vector", [False, True], ids=["heap", "vector"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_oracle_finisher(self, entry, vector, data):
        net, weights, root, terminals = data.draw(drawn_terminal_cases(vector))
        snapshot = csr.get_snapshot(net)
        assert (snapshot.m >= kernel.VECTOR_MIN_EDGES) == vector
        lower = kernel.weight_array

        def lowered(snapshot, token):
            if token == ("drawn",):
                return np.asarray(weights, dtype=np.float64)
            return lower(snapshot, token)

        spec = _DrawnSpec()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr, "weight_array", lowered)
            patch.setattr(kernel, "weight_array", lowered)
            if entry == "cached":
                got = _outcome(
                    lambda: PathCache(net).terminal_tree(root, terminals, spec)
                )
            else:
                got = _outcome(
                    lambda: csr.terminal_tree_csr(net, root, terminals, spec)
                )
        assert got == _oracle_outcome(net, weights, root, terminals)

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
  cache entry equals recomputation from scratch.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.errors import NoPathError
from repro.network import csr
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import LatencyWeightSpec, PathCache, get_cache
from tests.oracle import dijkstra, sssp, terminal_tree


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

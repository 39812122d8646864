"""The vectorised SSSP solve against the heap kernel it must reproduce.

``kernel._vector_solve`` rebuilds ``kernel._run``'s distances,
predecessors and first-discovery order under the tie-break contract in
the kernel docstring, or returns ``None`` to hand the source back.
Every test here calls it directly, whatever the size dispatch in
``kernel._solve`` would pick, and compares it with ``_run`` element by
element; the give-up paths are checked to still match through
``_solve``.  The hypothesis suite is derandomised, so a failure
reproduces byte for byte.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import repro
from repro.network import csr
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.csr import kernel
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import (
    HopWeightSpec,
    LatencyWeightSpec,
    PathCache,
)
from repro.network.topology import scale_free
from tests.oracle import sssp

INF = math.inf


def _reference(snapshot, weights, source_i):
    dist, prev, order, _settled = kernel._run(
        snapshot.indptr, snapshot.indices, list(weights), source_i
    )
    return dist, prev, order


def _as_lists(solved):
    dist, prev, order = solved
    if callable(order):
        order = order()
    return tuple(np.asarray(part).tolist() for part in (dist, prev, order))


def _assert_vector_matches(snapshot, weights, source_i):
    """The vectorised solve equals ``_run`` exactly (it must not give up)."""
    weights = np.asarray(weights, dtype=np.float64)
    solved = kernel._vector_solve(snapshot, weights, source_i)
    assert solved is not None
    dist, prev, order = _as_lists(solved)
    ref_dist, ref_prev, ref_order = _reference(snapshot, weights, source_i)
    assert [d.hex() for d in dist] == [d.hex() for d in ref_dist]
    assert prev == ref_prev
    assert order == ref_order


def _assert_dispatch_matches(snapshot, weights, source_i):
    """Whatever the solvers decide, ``_solve`` equals ``_run``."""
    array = np.asarray(weights, dtype=np.float64)
    got = _as_lists(kernel._solve(snapshot, source_i, list(weights), array))
    assert got == tuple(_reference(snapshot, weights, source_i))


def _ring(n, distance_km=1.0):
    net = Network(f"ring-{n}")
    for i in range(n):
        net.add_node(f"R{i}", NodeKind.ROUTER)
    for i in range(n):
        net.add_link(f"R{i}", f"R{(i + 1) % n}", 100.0, distance_km=distance_km)
    return net


def _tree_key(tree):
    return (tree.source, list(tree.distance.items()), list(tree.previous.items()))


@pytest.fixture(scope="module")
def hub_net():
    return scale_free(n_routers=60, m_links=2, seed=4, servers_per_site=1)


class TestHandBuilt:
    @pytest.mark.parametrize("kind", ["latency", "hop", "aux"])
    def test_weight_kinds_match(self, hub_net, kind):
        snapshot = csr.get_snapshot(hub_net)
        if kind == "aux":
            token = AuxiliaryGraphBuilder(hub_net, demand_gbps=4.0).cache_token()
        else:
            token = (kind,)
        weights = csr.weight_array(snapshot, token)
        for source_i in range(0, snapshot.n, 7):
            _assert_vector_matches(snapshot, weights, source_i)

    def test_aux_under_load_and_failures(self):
        net = scale_free(n_routers=60, m_links=2, seed=4, servers_per_site=1)
        links = net.inter_switch_links()
        for u, v in links[:12]:
            net.reserve_edge(u, v, 97.0, "bg")
        net.fail_link(*links[20])
        snapshot = csr.get_snapshot(net)
        builder = AuxiliaryGraphBuilder(net, demand_gbps=4.0)
        weights = csr.weight_array(snapshot, builder.cache_token())
        assert np.isinf(weights).any()
        for source_i in range(0, snapshot.n, 5):
            _assert_vector_matches(snapshot, weights, source_i)

    def test_zero_weight_edges(self, hub_net):
        snapshot = csr.get_snapshot(hub_net)
        weights = np.ones(snapshot.m)
        weights[::3] = 0.0
        for source_i in range(0, snapshot.n, 6):
            _assert_vector_matches(snapshot, weights, source_i)

    def test_all_zero_weights(self, hub_net):
        snapshot = csr.get_snapshot(hub_net)
        weights = np.zeros(snapshot.m)
        for source_i in (0, 17, 61):
            _assert_vector_matches(snapshot, weights, source_i)

    def test_inf_edges_and_unreachable_component(self):
        net = Network("split")
        for name in ("a", "b", "c", "x", "y"):
            net.add_node(name, NodeKind.ROUTER)
        net.add_link("a", "b", 100.0, distance_km=3.0)
        net.add_link("b", "c", 100.0, distance_km=4.0)
        net.add_link("a", "c", 100.0, distance_km=9.0)
        net.add_link("x", "y", 100.0, distance_km=1.0)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, ("latency",))
        weights[snapshot.edge_pos[("b", "c")]] = INF
        for source_i in range(snapshot.n):
            _assert_vector_matches(snapshot, weights, source_i)
        dist, _prev, order = _as_lists(
            kernel._vector_solve(snapshot, weights, snapshot.index["a"])
        )
        assert dist[snapshot.index["x"]] == INF
        assert snapshot.index["x"] not in order

    def test_isolated_source(self):
        net = _ring(5)
        net.add_node("lonely", NodeKind.ROUTER)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, ("latency",))
        source_i = snapshot.index["lonely"]
        _assert_vector_matches(snapshot, weights, source_i)
        _dist, prev, order = _as_lists(
            kernel._vector_solve(snapshot, weights, source_i)
        )
        assert order == [source_i]
        assert prev == [-1] * snapshot.n

    def test_edgeless_graph(self):
        net = Network("nodes-only")
        for name in "abc":
            net.add_node(name, NodeKind.ROUTER)
        snapshot = csr.get_snapshot(net)
        assert snapshot.m == 0
        for source_i in range(snapshot.n):
            _assert_vector_matches(snapshot, np.zeros(0), source_i)

    def test_epsilon_near_tie_falls_back(self):
        # s->a->t sums 0.1 + 0.2 = 0.30000000000000004, within 1e-15 of
        # the direct s->t edge (0.3) but not equal: _run's answer depends
        # on which candidate arrives first.
        net = Network("near-tie")
        for name in ("s", "a", "t"):
            net.add_node(name, NodeKind.ROUTER)
        net.add_link("s", "a", 100.0)
        net.add_link("a", "t", 100.0)
        net.add_link("s", "t", 100.0)
        snapshot = csr.get_snapshot(net)
        weights = np.ones(snapshot.m)
        weights[snapshot.edge_pos[("s", "a")]] = 0.1
        weights[snapshot.edge_pos[("a", "t")]] = 0.2
        weights[snapshot.edge_pos[("s", "t")]] = 0.3
        source_i = snapshot.index["s"]
        assert kernel._vector_distances(snapshot, weights, source_i) is not None
        assert kernel._vector_solve(snapshot, weights, source_i) is None
        _assert_dispatch_matches(snapshot, weights, source_i)

    def test_long_ring_hits_sweep_bound(self):
        snapshot = csr.get_snapshot(_ring(1000))
        assert snapshot.m >= kernel.VECTOR_MIN_EDGES  # dispatch would try it
        weights = csr.weight_array(snapshot, ("latency",))
        for source_i in (0, 500):
            assert kernel._vector_distances(snapshot, weights, source_i) is None
            assert kernel._vector_solve(snapshot, weights, source_i) is None
            _assert_dispatch_matches(snapshot, weights, source_i)

    def test_returns_python_floats_through_the_tree(self):
        net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        snapshot = csr.get_snapshot(net)
        assert snapshot.m >= kernel.VECTOR_MIN_EDGES
        tree = PathCache(net).sssp("SRV-3-0", LatencyWeightSpec(net))
        assert isinstance(tree.dist, np.ndarray)  # the vectorised solve ran
        path = tree.path_to("SRV-200-0")
        assert type(path.weight) is float
        assert all(type(d) is float for d in tree.distance.values())
        assert type(tree.distance_to("SRV-200-0")) is float

    def test_cached_tree_does_not_pin_the_weight_list(self):
        net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        cache = PathCache(net)
        spec = LatencyWeightSpec(net)
        tree = cache.sssp("SRV-3-0", spec)
        _epoch, _version, array, wlist = cache._warrays[spec.cache_token()]
        # Everything the tree holds, short of the snapshot (which leads
        # back to the network and its cache).
        seen, stack, arrays = set(), [tree], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (csr.CsrSnapshot, Network)):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                arrays.add(id(obj))
            stack.extend(gc.get_referents(obj))
        assert id(wlist) not in seen
        assert id(array) in seen  # the deferred order reads the array
        # ... and dist, but holds no tie or rank index array of its own.
        assert arrays == {id(tree.dist), id(tree.prev), id(array)}
        assert tree.order[0] == tree.index["SRV-3-0"]


def _has_equal_distances(dist):
    reached = dist[dist < INF]
    return np.unique(reached).size < reached.size


class TestSettleRanks:
    """Settle ranks are built for ambiguous ties, and otherwise only for
    ``order``: a lone exact tie from a strictly closer head is ``prev``."""

    @pytest.fixture()
    def ranks(self, monkeypatch):
        """What each ``_settle_rank`` call returned, in call order."""
        results = []
        original = kernel._settle_rank

        def recording(*args):
            rank = original(*args)
            results.append(rank)
            return rank

        monkeypatch.setattr(kernel, "_settle_rank", recording)
        return results

    @pytest.mark.parametrize("kind", ["latency", "aux"])
    def test_unique_ties_rank_only_for_order(self, ranks, hub_net, kind):
        snapshot = csr.get_snapshot(hub_net)
        if kind == "aux":
            token = AuxiliaryGraphBuilder(hub_net, demand_gbps=4.0).cache_token()
        else:
            token = (kind,)
        weights = csr.weight_array(snapshot, token)
        for source_i in range(0, snapshot.n, 7):
            solved = kernel._vector_solve(snapshot, weights, source_i)
            assert ranks == []
            got = _as_lists(solved)
            assert len(ranks) == 1 and ranks[0] is not None
            assert got == tuple(_reference(snapshot, weights, source_i))
            ranks.clear()

    def test_tree_paths_need_no_ranks(self, ranks):
        net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        spec = LatencyWeightSpec(net)
        tree = PathCache(net).sssp("SRV-3-0", spec)
        assert isinstance(tree.dist, np.ndarray)  # the vectorised solve ran
        tree.path_to("SRV-200-0")
        assert ranks == []
        assert tree == sssp(net, "SRV-3-0", spec.weight_fn())
        assert len(ranks) == 1

    @staticmethod
    def _snapshot(name, links):
        net = Network(name)
        for link in links:
            for node in link:
                if node not in net:
                    net.add_node(node, NodeKind.ROUTER)
            net.add_link(*link, 100.0)
        return csr.get_snapshot(net)

    def test_ambiguous_ties_rank_in_the_solve(self, ranks, hub_net):
        snapshot = csr.get_snapshot(hub_net)
        hop = csr.weight_array(snapshot, ("hop",))
        cases = [(snapshot, hop, source_i) for source_i in range(0, snapshot.n, 9)]
        # b's one exact tie is a zero-weight edge from a, at a's distance.
        chain = self._snapshot("zero", [("s", "a"), ("a", "b")])
        zero = np.ones(chain.m)
        zero[chain.edge_pos[("a", "b")]] = 0.0
        cases.append((chain, zero, chain.index["s"]))
        diamond = self._snapshot(
            "diamond", [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]
        )
        cases.append((diamond, np.ones(diamond.m), diamond.index["s"]))
        for case_snapshot, weights, source_i in cases:
            ranks.clear()
            assert kernel._vector_solve(case_snapshot, weights, source_i)
            assert len(ranks) == 1 and ranks[0] is not None
            _assert_vector_matches(case_snapshot, weights, source_i)

    def test_order_is_runs_own_when_ranks_give_up(
        self, ranks, monkeypatch, hub_net
    ):
        snapshot = csr.get_snapshot(hub_net)
        weights = csr.weight_array(snapshot, ("latency",))
        sources = [
            source_i
            for source_i in range(0, snapshot.n, 5)
            if _has_equal_distances(
                kernel._vector_distances(snapshot, weights, source_i)
            )
        ]
        assert sources
        solved = [kernel._vector_solve(snapshot, weights, s) for s in sources]
        assert ranks == []
        # No fixpoint pass left: every equal-distance class gives up.
        monkeypatch.setattr(kernel, "_sweep_budget", lambda snapshot: 0)
        for source_i, (dist, prev, order) in zip(sources, solved):
            got = _as_lists((dist, prev, order))
            assert ranks == [None]
            assert got == tuple(_reference(snapshot, weights, source_i))
            ranks.clear()


class TestDispatch:
    def _count_vector_calls(self, monkeypatch):
        calls = []
        original = kernel._vector_solve

        def recording(snapshot, weights, source_i):
            calls.append(snapshot.m)
            return original(snapshot, weights, source_i)

        monkeypatch.setattr(kernel, "_vector_solve", recording)
        return calls

    def test_small_snapshot_runs_heap_kernel(self, monkeypatch, hub_net):
        calls = self._count_vector_calls(monkeypatch)
        snapshot = csr.get_snapshot(hub_net)
        assert snapshot.m < kernel.VECTOR_MIN_EDGES
        csr.sssp_csr(hub_net, "SRV-0-0", LatencyWeightSpec(hub_net))
        assert calls == []

    def test_large_snapshot_tries_vector_solve(self, monkeypatch):
        calls = self._count_vector_calls(monkeypatch)
        net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        spec = LatencyWeightSpec(net)
        csr.sssp_csr(net, "SRV-0-0", spec)
        builder = AuxiliaryGraphBuilder(net, demand_gbps=2.0, owner="t")
        csr.terminal_tree_csr(net, "SRV-0-0", ["SRV-9-0", "SRV-40-0"], builder)
        snapshot = csr.get_snapshot(net)
        assert calls == [snapshot.m] * 3
        assert snapshot.m >= kernel.VECTOR_MIN_EDGES

    def test_budget_grows_with_edge_count(self):
        small = csr.get_snapshot(_ring(10))
        large = csr.get_snapshot(_ring(2000))
        cut = kernel.VECTOR_MIN_EDGES // kernel.VECTOR_EDGES_PER_SWEEP
        assert kernel._sweep_budget(small) == cut
        assert kernel._sweep_budget(large) == 4000 // kernel.VECTOR_EDGES_PER_SWEEP


class TestAboveTheCut:
    """The object-oracle comparisons, on a graph the dispatch vectorises."""

    @pytest.fixture()
    def big_net(self):
        net = scale_free(n_routers=250, m_links=2, seed=6, servers_per_site=1)
        assert csr.get_snapshot(net).m >= kernel.VECTOR_MIN_EDGES
        return net

    def test_tree_key_matches_object_kernel(self, big_net):
        for spec in (LatencyWeightSpec(big_net), HopWeightSpec(big_net)):
            for source in big_net.servers()[::50]:
                array_tree = csr.sssp_csr(big_net, source, spec)
                object_tree = sssp(big_net, source, spec.weight_fn())
                assert _tree_key(array_tree) == _tree_key(object_tree)
                assert array_tree == object_tree

    def test_matches_object_kernel_under_mutations(self, big_net):
        links = big_net.inter_switch_links()
        rng = np.random.default_rng(3)
        root = big_net.servers()[0]
        terminals = big_net.servers()[40:200:40]
        for step in range(6):
            u, v = links[int(rng.integers(len(links)))]
            if step % 3 == 2:
                big_net.fail_link(u, v)
            elif not big_net.link(u, v).failed:
                big_net.reserve_edge(u, v, 60.0, f"bg{step}")
            spec = LatencyWeightSpec(big_net)
            array_tree = csr.sssp_csr(big_net, root, spec)
            object_tree = sssp(big_net, root, spec.weight_fn())
            assert _tree_key(array_tree) == _tree_key(object_tree)
            builder = AuxiliaryGraphBuilder(big_net, demand_gbps=50.0, owner="q")
            aux_tree = csr.sssp_csr(big_net, root, builder)
            assert _tree_key(aux_tree) == _tree_key(
                sssp(big_net, root, builder.weight_fn())
            )
            array_t = csr.terminal_tree_csr(big_net, root, terminals, builder)
            cache_t = PathCache(big_net).terminal_tree(root, terminals, builder)
            assert array_t == cache_t


@st.composite
def weighted_graphs(draw):
    """A small random graph plus an arbitrary per-directed-edge weight array."""
    n = draw(st.integers(1, 14))
    net = Network("random")
    for i in range(n):
        net.add_node(f"n{i}", NodeKind.ROUTER)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
        for a, b in chosen:
            net.add_link(f"n{a}", f"n{b}", 100.0)
    snapshot = csr.get_snapshot(net)
    # Few distinct values, so exact ties (and 0.1 + 0.2 style near-ties)
    # are common rather than vanishingly rare.
    values = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0, 3.0, INF])
    floats = st.floats(0.0, 10.0, allow_nan=False)
    weights = draw(
        st.lists(values | floats, min_size=snapshot.m, max_size=snapshot.m)
    )
    source_i = draw(st.integers(0, n - 1))
    return snapshot, weights, source_i


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(weighted_graphs())
    def test_vector_solve_is_run_or_gives_up(self, case):
        snapshot, weights, source_i = case
        array = np.asarray(weights, dtype=np.float64)
        solved = kernel._vector_solve(snapshot, array, source_i)
        if solved is not None:
            _assert_vector_matches(snapshot, weights, source_i)
        _assert_dispatch_matches(snapshot, weights, source_i)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.sampled_from(["latency", "hop", "aux"]))
    def test_scale_free_weights_never_give_up(self, seed, kind):
        net = scale_free(n_routers=30, m_links=2, seed=seed, servers_per_site=1)
        snapshot = csr.get_snapshot(net)
        if kind == "aux":
            token = AuxiliaryGraphBuilder(net, demand_gbps=3.0).cache_token()
        else:
            token = (kind,)
        weights = csr.weight_array(snapshot, token)
        _assert_vector_matches(snapshot, weights, seed % snapshot.n)


def test_scale_free_1k_never_imports_scipy():
    script = textwrap.dedent(
        """
        import sys
        from repro.network import routing
        from repro.network.auxiliary import AuxiliaryGraphBuilder
        from repro.network.topology import scale_free

        net = scale_free(n_routers=1000, m_links=2, seed=1, servers_per_site=1)
        cache = routing.get_cache(net)
        builder = AuxiliaryGraphBuilder(net, demand_gbps=4.0)
        servers = net.servers()
        cache.terminal_tree(servers[0], servers[1:5], builder)
        cache.sssp(servers[7], routing.HopWeightSpec(net))
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print("scipy modules:", loaded)
        sys.exit(1 if loaded else 0)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stdout + done.stderr

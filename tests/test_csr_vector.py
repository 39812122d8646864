"""The vectorised SSSP solve against the heap kernel it must reproduce.

``kernel._vector_solve`` rebuilds ``kernel._run``'s distances and
predecessors under the tie-break contract in the kernel docstring, or
returns ``None`` to hand the source back.
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
from repro import obs
from repro.core.fixed import FixedScheduler
from repro.errors import NoPathError, SchedulingError
from repro.network import csr, routing
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.csr import kernel
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import (
    HopWeightSpec,
    LatencyWeightSpec,
    PathCache,
)
from repro.network.topology import fat_tree, scale_free
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model
from tests.oracle import sssp

INF = math.inf


def _reference(snapshot, weights, source_i):
    return kernel._run(snapshot.indptr, snapshot.indices, list(weights), source_i)


def _as_lists(solved):
    return tuple(np.asarray(part).tolist() for part in solved)


def _distances(snapshot, weights, source_i):
    """``kernel._vector_distances`` for one source, as a pass calls it."""
    core = snapshot.core()
    starts, start_dist, _parents = kernel._row_starts(
        snapshot, core, weights, [source_i]
    )
    return kernel._vector_distances(
        core,
        core.edge_arrays(),
        weights[core.edges],
        starts,
        start_dist,
        kernel._sweep_budget(snapshot),
    )


def _assert_vector_matches(snapshot, weights, source_i):
    """The vectorised solve equals ``_run`` exactly (it must not give up)."""
    weights = np.asarray(weights, dtype=np.float64)
    solved = kernel._vector_solve(snapshot, weights, [source_i])[0]
    assert solved is not None
    dist, prev = _as_lists(solved)
    ref_dist, ref_prev = _reference(snapshot, weights, source_i)
    assert [d.hex() for d in dist] == [d.hex() for d in ref_dist]
    assert prev == ref_prev


def _assert_dispatch_matches(snapshot, weights, source_i):
    """Whatever the solvers decide, ``_solve`` equals ``_run``."""
    array = np.asarray(weights, dtype=np.float64)
    solves = kernel._solve(snapshot, [source_i], list(weights), array)
    got = _as_lists(next(solves))
    assert got == tuple(_reference(snapshot, weights, source_i))


def _assert_batch_matches(snapshot, weights, sources):
    """Every row of one pass is ``_run``'s answer or a give-up (``None``),
    and the dispatched batch equals ``_run`` for every source."""
    array = np.asarray(weights, dtype=np.float64)
    solved = kernel._vector_solve(snapshot, array, sources)
    assert len(solved) == len(sources)
    expected = [_reference(snapshot, array, source_i) for source_i in sources]
    for row, (ref_dist, ref_prev) in zip(solved, expected):
        if row is not None:
            dist, prev = _as_lists(row)
            assert [d.hex() for d in dist] == [d.hex() for d in ref_dist]
            assert prev == ref_prev
    dispatched = kernel._solve(snapshot, list(sources), array.tolist(), array)
    assert [_as_lists(row) for row in dispatched] == [
        tuple(pair) for pair in expected
    ]
    return solved


def _ring(n, distance_km=1.0):
    net = Network(f"ring-{n}")
    for i in range(n):
        net.add_node(f"R{i}", NodeKind.ROUTER)
    for i in range(n):
        net.add_link(f"R{i}", f"R{(i + 1) % n}", 100.0, distance_km=distance_km)
    return net


def _tree_key(tree):
    return (tree.source, tree.distance, tree.previous)


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
        dist, prev = _as_lists(
            kernel._vector_solve(snapshot, weights, [snapshot.index["a"]])[0]
        )
        assert dist[snapshot.index["x"]] == INF
        assert prev[snapshot.index["x"]] == -1

    def test_isolated_source(self):
        net = _ring(5)
        net.add_node("lonely", NodeKind.ROUTER)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, ("latency",))
        source_i = snapshot.index["lonely"]
        _assert_vector_matches(snapshot, weights, source_i)
        _dist, prev = _as_lists(
            kernel._vector_solve(snapshot, weights, [source_i])[0]
        )
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
        assert _distances(snapshot, weights, source_i)[1].all()
        assert kernel._vector_solve(snapshot, weights, [source_i])[0] is None
        _assert_dispatch_matches(snapshot, weights, source_i)

    def test_long_ring_hits_sweep_bound(self):
        snapshot = csr.get_snapshot(_ring(1000))
        assert snapshot.m >= kernel.VECTOR_MIN_EDGES  # dispatch would try it
        weights = csr.weight_array(snapshot, ("latency",))
        for source_i in (0, 500):
            _dist, converged = _distances(snapshot, weights, source_i)
            assert not converged.any()
            assert kernel._vector_solve(snapshot, weights, [source_i])[0] is None
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
        assert id(wlist) not in seen and id(array) not in seen
        assert arrays == {id(tree.dist), id(tree.prev)}


class TestSettleRanks:
    """Settle ranks are built only for ambiguous ties: a lone exact tie
    from a strictly closer head is ``prev``."""

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

    def test_tree_paths_need_no_ranks(self, ranks):
        net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        cache = PathCache(net)
        builder = AuxiliaryGraphBuilder(net, demand_gbps=4.0)
        for spec in (LatencyWeightSpec(net), builder):
            tree = cache.sssp("SRV-3-0", spec)
            assert isinstance(tree.dist, np.ndarray)  # the vectorised solve ran
            tree.path_to("SRV-200-0")
            assert tree == sssp(net, "SRV-3-0", spec.weight_fn())
        assert ranks == []

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
        square = self._snapshot(
            "zero", [("s", "a"), ("a", "b"), ("b", "c"), ("c", "s")]
        )
        zero = np.ones(square.m)
        zero[square.edge_pos[("a", "b")]] = 0.0
        cases.append((square, zero, square.index["s"]))
        diamond = self._snapshot(
            "diamond", [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]
        )
        cases.append((diamond, np.ones(diamond.m), diamond.index["s"]))
        for case_snapshot, weights, source_i in cases:
            ranks.clear()
            assert kernel._vector_solve(case_snapshot, weights, [source_i])[0]
            assert len(ranks) == 1 and ranks[0] is not None
            _assert_vector_matches(case_snapshot, weights, source_i)


class TestDispatch:
    def _count_vector_calls(self, monkeypatch):
        calls = []
        original = kernel._vector_solve

        def recording(snapshot, weights, sources):
            calls.append((snapshot.m, len(sources)))
            return original(snapshot, weights, sources)

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
        # One pass for the lone tree, one for the terminal tree's two
        # sources.
        assert calls == [(snapshot.m, 1), (snapshot.m, 2)]
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


@pytest.fixture(scope="module")
def hub_1k():
    return scale_free(n_routers=1000, m_links=2, seed=1, servers_per_site=1)


class TestBatchedSolve:
    """One vectorised pass over several sources against ``_run`` per source."""

    @pytest.mark.parametrize("kind", ["aux", "latency"])
    def test_random_batches_on_the_1k_hub_graph(self, hub_1k, kind):
        snapshot = csr.get_snapshot(hub_1k)
        if kind == "aux":
            token = AuxiliaryGraphBuilder(hub_1k, demand_gbps=4.0).cache_token()
        else:
            token = (kind,)
        weights = csr.weight_array(snapshot, token)
        rng = np.random.default_rng(len(kind))
        for size in (2, 5, kernel.VECTOR_BATCH, kernel.VECTOR_BATCH + 3):
            sources = rng.choice(snapshot.n, size, replace=False).tolist()
            solved = _assert_batch_matches(snapshot, weights, sources)
            assert all(row is not None for row in solved)

    def test_ambiguous_ties_rank_per_row(self):
        net = fat_tree(4)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, ("hop",))
        sources = list(range(0, snapshot.n, 3))
        with obs.enabled() as registry:
            solved = _assert_batch_matches(snapshot, weights, sources)
        assert all(row is not None for row in solved)
        counters = registry.summary()["counters"]
        assert counters["csr.vector_ranked"] == len(sources)
        assert counters["csr.vector_batches"] == 1

    def test_ranked_and_lone_rows_in_one_pass(self, hub_net):
        # A copy of the hub graph with distinct weights (lone ties only)
        # beside a unit-weight diamond (two exact ties into its sink).
        net = hub_net.copy_topology()
        for a, b in (("ds", "da"), ("ds", "db"), ("da", "dt"), ("db", "dt")):
            for node in (a, b):
                if node not in net:
                    net.add_node(node, NodeKind.ROUTER)
            net.add_link(a, b, 100.0)
        snapshot = csr.get_snapshot(net)
        weights = np.random.default_rng(5).uniform(1.0, 2.0, snapshot.m)
        for u, v in (("ds", "da"), ("ds", "db"), ("da", "dt"), ("db", "dt")):
            weights[snapshot.edge_pos[(u, v)]] = 1.0
            weights[snapshot.edge_pos[(v, u)]] = 1.0
        index = snapshot.index
        sources = [0, index["ds"], 7, index["dt"], 11]
        with obs.enabled() as registry:
            solved = _assert_batch_matches(snapshot, weights, sources)
        assert all(row is not None for row in solved)
        assert registry.summary()["counters"]["csr.vector_ranked"] == 2

    def test_give_up_rows_leave_their_neighbours_alone(self):
        # The ring's rows run out of sweeps; the star's converge at once.
        net = _ring(1000)
        net.add_node("hub", NodeKind.ROUTER)
        for i in range(20):
            net.add_node(f"leaf{i}", NodeKind.ROUTER)
            net.add_link("hub", f"leaf{i}", 100.0, distance_km=1.0 + i)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, ("latency",))
        index = snapshot.index
        sources = [index["R0"], index["hub"], index["R500"], index["leaf3"]]
        solved = _assert_batch_matches(snapshot, weights, sources)
        assert solved[0] is None and solved[2] is None
        for row in (1, 3):
            alone = kernel._vector_solve(snapshot, weights, [sources[row]])[0]
            assert _as_lists(solved[row]) == _as_lists(alone)

    def test_near_tie_row_gives_up_alone(self):
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
        index = snapshot.index
        sources = [index["s"], index["a"], index["t"], index["s"]]
        solved = _assert_batch_matches(snapshot, weights, sources)
        assert solved[0] is None and solved[3] is None
        assert solved[1] is not None and solved[2] is not None

    def test_duplicate_and_unreachable_sources(self):
        net = Network("split")
        for name in ("a", "b", "c", "x", "y"):
            net.add_node(name, NodeKind.ROUTER)
        net.add_link("a", "b", 100.0, distance_km=3.0)
        net.add_link("b", "c", 100.0, distance_km=4.0)
        net.add_link("x", "y", 100.0, distance_km=1.0)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, ("latency",))
        index = snapshot.index
        sources = [index["x"], index["a"], index["a"], index["y"], index["x"]]
        solved = _assert_batch_matches(snapshot, weights, sources)
        assert _as_lists(solved[1]) == _as_lists(solved[2])
        assert solved[1][0] is not solved[2][0]
        dist, prev = _as_lists(solved[0])
        assert dist[index["a"]] == INF and prev[index["a"]] == -1


class TestBatchedLookups:
    """The path cache's batched lookups against per-source ones."""

    @staticmethod
    def _lookups(net, batched, spec, sources):
        cache = PathCache(net)
        # Hits between misses: the stored order then shows where each
        # miss entered the LRU.
        for source in sources[2:9:3]:
            cache.sssp(source, spec)
        # Move the epoch so that the primed entries are revalidated.
        u, v = net.inter_switch_links()[0]
        net.reserve_edge(u, v, 1.0, "probe")
        try:
            if batched:
                trees = cache.batched_sssp(sources, spec)
            else:
                trees = {
                    source: cache.sssp(source, spec)
                    for source in dict.fromkeys(sources)
                }
        finally:
            net.release_owner("probe")
        return cache, trees

    @pytest.mark.parametrize("size", ["run", "vector"])
    @pytest.mark.parametrize("max_entries", [routing.MAX_ENTRIES, 6])
    def test_hits_misses_and_lru_order_match(self, monkeypatch, size, max_entries):
        monkeypatch.setattr(routing, "MAX_ENTRIES", max_entries)
        if size == "run":
            net = scale_free(n_routers=60, m_links=2, seed=4, servers_per_site=1)
        else:
            net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        servers = net.servers()
        sources = [servers[1], *servers[20:31], servers[1], servers[0]]
        for spec in (
            LatencyWeightSpec(net),
            AuxiliaryGraphBuilder(net, demand_gbps=4.0),
        ):
            batched, batched_trees = self._lookups(net, True, spec, sources)
            single, single_trees = self._lookups(net, False, spec, sources)
            assert list(batched_trees) == list(single_trees)
            for source in single_trees:
                assert batched_trees[source] == single_trees[source]
            assert list(batched._entries) == list(single._entries)
            assert batched.stats.as_dict() == single.stats.as_dict()

    @staticmethod
    def _count_runs(monkeypatch):
        calls = []
        original = kernel._run

        def recording(indptr, indices, weights, source_i, *args, **kwargs):
            calls.append(source_i)
            return original(indptr, indices, weights, source_i, *args, **kwargs)

        monkeypatch.setattr(kernel, "_run", recording)
        return calls

    @pytest.fixture()
    def split_net(self, hub_net):
        net = hub_net.copy_topology()
        net.add_node("lonely", NodeKind.SERVER)
        assert csr.get_snapshot(net).m < kernel.VECTOR_MIN_EDGES
        return net

    def test_blocked_fixed_task_solves_no_extra_tree(self, monkeypatch, split_net):
        servers = split_net.servers()
        task = AITask(
            task_id="blocked",
            model=get_model("resnet18"),
            global_node=servers[0],
            local_nodes=(servers[5], "lonely", servers[9]),
            demand_gbps=1.0,
        )
        calls = self._count_runs(monkeypatch)
        with pytest.raises(SchedulingError, match="lonely"):
            FixedScheduler().schedule(task, split_net)
        # Only the global node's tree: the unreachable local blocks the
        # task before any local's tree is solved.
        index = csr.get_snapshot(split_net).index
        assert calls == [index[servers[0]]]

    def test_blocked_terminal_tree_stops_at_the_first_gap(
        self, monkeypatch, split_net
    ):
        servers = split_net.servers()
        calls = self._count_runs(monkeypatch)
        with pytest.raises(NoPathError):
            PathCache(split_net).terminal_tree(
                servers[0],
                [servers[5], "lonely", servers[9]],
                LatencyWeightSpec(split_net),
            )
        index = csr.get_snapshot(split_net).index
        assert calls == [index[servers[0]]]


def _leafy(name, links, leaves=(), isolated=()):
    """A network of ``links`` with one leaf link per ``(leaf, parent)``."""
    net = Network(name)
    for u, v in [*links, *leaves]:
        for node in (u, v):
            if node not in net:
                net.add_node(node, NodeKind.ROUTER)
    for node in isolated:
        net.add_node(node, NodeKind.ROUTER)
    for u, v in links:
        net.add_link(u, v, 100.0)
    for leaf, parent in leaves:
        net.add_link(parent, leaf, 100.0)
    return csr.get_snapshot(net)


def _assert_rows_match(snapshot, weights, sources):
    """One pass over ``sources`` equals ``_run`` per source, no give-ups."""
    array = np.asarray(weights, dtype=np.float64)
    solved = kernel._vector_solve(snapshot, array, list(sources))
    for source_i, row in zip(sources, solved):
        assert row is not None, snapshot.names[source_i]
        dist, prev = _as_lists(row)
        ref_dist, ref_prev = _reference(snapshot, array, source_i)
        assert [d.hex() for d in dist] == [d.hex() for d in ref_dist]
        assert prev == ref_prev, snapshot.names[source_i]


#: A diamond core (s, a, b, t) with pendants p off s, q and r off t,
#: and x off a.
_DIAMOND = [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]
_LEAVES = [("p", "s"), ("q", "t"), ("r", "t"), ("x", "a")]


class TestPendants:
    """The core solve attaches degree-one nodes exactly as ``_run`` does."""

    def test_core_of_the_hub_fabric(self, hub_1k):
        snapshot = csr.get_snapshot(hub_1k)
        core = snapshot.core()
        servers = hub_1k.servers()
        assert (snapshot.n, snapshot.m) == (2000, 5994)
        assert (core.n, core.m) == (1000, 3994)
        assert sorted(snapshot.names[i] for i in core.pendants) == sorted(servers)
        for pendant, parent, in_edge in zip(
            core.pendants, core.parents, core.in_edges
        ):
            assert snapshot.heads[in_edge] == parent
            assert snapshot.indices[in_edge] == pendant
        assert snapshot.core() is core

    def test_core_structure(self):
        snapshot = _leafy("shape", [*_DIAMOND, ("u", "v")], _LEAVES, ["z"])
        core = snapshot.core()
        names = [snapshot.names[i] for i in core.nodes]
        # The two-node component u-v and the isolated z stay whole.
        assert sorted(names) == ["a", "b", "s", "t", "u", "v", "z"]
        assert sorted(snapshot.names[i] for i in core.pendants) == list("pqrx")
        assert core.m == 2 * len(_DIAMOND) + 2
        assert core.local[core.nodes].tolist() == list(range(core.n))
        assert (core.local[core.pendants] == -1).all()

    @pytest.mark.parametrize("kind", ["random", "latency", "hop"])
    def test_pendant_sources_and_targets(self, kind):
        snapshot = _leafy("leafy", _DIAMOND, _LEAVES)
        if kind == "random":
            weights = np.random.default_rng(9).uniform(0.5, 3.0, snapshot.m)
        else:
            weights = csr.weight_array(snapshot, (kind,))
        _assert_rows_match(snapshot, weights, range(snapshot.n))

    def test_hop_weights_rank_pendant_source_rows(self):
        snapshot = _leafy("leafy", _DIAMOND, _LEAVES)
        weights = csr.weight_array(snapshot, ("hop",))
        index = snapshot.index
        with obs.enabled() as registry:
            _assert_rows_match(snapshot, weights, [index["p"], index["q"]])
        # From p (start s) and q (start t), the far end of the diamond
        # has two exact ties at equal hop counts.
        assert registry.summary()["counters"]["csr.vector_ranked"] == 2

    @pytest.mark.parametrize("value", [0.0, INF])
    @pytest.mark.parametrize("direction", ["in", "out", "both"])
    def test_zero_and_inf_access_links(self, value, direction):
        snapshot = _leafy("leafy", _DIAMOND, _LEAVES)
        weights = np.random.default_rng(4).uniform(0.5, 3.0, snapshot.m)
        for leaf, parent in _LEAVES:
            if direction in ("in", "both"):
                weights[snapshot.edge_pos[(parent, leaf)]] = value
            if direction in ("out", "both"):
                weights[snapshot.edge_pos[(leaf, parent)]] = value
        _assert_rows_match(snapshot, weights, range(snapshot.n))

    def test_pendant_source_behind_a_failed_access_link(self):
        net = scale_free(n_routers=250, m_links=2, seed=2, servers_per_site=1)
        server = net.servers()[17]
        (router,) = net.neighbors(server)
        net.fail_link(server, router)
        snapshot = csr.get_snapshot(net)
        builder = AuxiliaryGraphBuilder(net, demand_gbps=4.0)
        for spec in (LatencyWeightSpec(net), builder):
            weights = csr.weight_array(snapshot, spec.cache_token())
            assert weights[snapshot.edge_pos[(server, router)]] == INF
            index = snapshot.index
            sources = [index[server], index[router], index[net.servers()[3]]]
            with obs.enabled() as registry:
                _assert_rows_match(snapshot, weights, sources)
            # The stranded row reaches nothing and needs no ranks.
            assert "csr.vector_ranked" not in registry.summary()["counters"]
            dist, prev = _as_lists(
                kernel._vector_solve(snapshot, weights, [index[server]])[0]
            )
            assert [i for i, d in enumerate(dist) if d < INF] == [index[server]]
            assert prev == [-1] * snapshot.n

    def test_two_node_components(self):
        snapshot = _leafy("pairs", [*_DIAMOND, ("u", "v"), ("w", "y")], _LEAVES)
        weights = np.random.default_rng(2).uniform(0.5, 3.0, snapshot.m)
        weights[snapshot.edge_pos[("w", "y")]] = 0.0
        weights[snapshot.edge_pos[("y", "w")]] = INF
        _assert_rows_match(snapshot, weights, range(snapshot.n))

    def test_star(self):
        leaves = [(f"l{i}", "hub") for i in range(6)]
        snapshot = _leafy("star", [], leaves)
        core = snapshot.core()
        assert (core.n, core.m) == (1, 0)
        weights = np.random.default_rng(3).uniform(0.5, 3.0, snapshot.m)
        weights[snapshot.edge_pos[("hub", "l2")]] = INF
        weights[snapshot.edge_pos[("l4", "hub")]] = INF
        weights[snapshot.edge_pos[("l5", "hub")]] = 0.0
        _assert_rows_match(snapshot, weights, range(snapshot.n))
        _assert_rows_match(snapshot, np.zeros(snapshot.m), range(snapshot.n))

    def test_isolated_nodes_and_edgeless_graph(self):
        snapshot = _leafy("sparse", _DIAMOND, _LEAVES, ["z1", "z2"])
        weights = np.random.default_rng(6).uniform(0.5, 3.0, snapshot.m)
        _assert_rows_match(snapshot, weights, range(snapshot.n))
        edgeless = _leafy("edgeless", [], [], ["a", "b", "c"])
        assert edgeless.core().n == 3
        _assert_rows_match(edgeless, np.zeros(0), range(3))

    @pytest.mark.parametrize("kind", ["aux", "hop"])
    def test_full_batches_mix_pendant_and_core_sources(self, hub_1k, kind):
        snapshot = csr.get_snapshot(hub_1k)
        if kind == "aux":
            token = AuxiliaryGraphBuilder(hub_1k, demand_gbps=4.0).cache_token()
        else:
            token = (kind,)
        weights = csr.weight_array(snapshot, token)
        core = snapshot.core()
        rng = np.random.default_rng(11)
        sources = [
            *rng.choice(core.pendants, kernel.VECTOR_BATCH // 2, replace=False),
            *rng.choice(core.nodes, kernel.VECTOR_BATCH // 2, replace=False),
        ]
        rng.shuffle(sources)
        _assert_rows_match(snapshot, weights, [int(i) for i in sources])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_leafy_graphs_match_run(self, data):
        snapshot, weights, _source_i = data.draw(weighted_graphs(leaves=True))
        array = np.asarray(weights, dtype=np.float64)
        sources = data.draw(
            st.lists(st.integers(0, snapshot.n - 1), min_size=1, max_size=16)
        )
        _assert_batch_matches(snapshot, array, sources)


@st.composite
def weighted_graphs(draw, leaves=False):
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
    if leaves:
        # Degree-one nodes hung off random nodes, earlier leaves
        # included, so that some make chains or two-node components.
        for i in range(draw(st.integers(0, 8))):
            parent = draw(st.sampled_from(net.node_names()))
            net.add_node(f"leaf{i}", NodeKind.ROUTER)
            net.add_link(f"leaf{i}", parent, 100.0)
    snapshot = csr.get_snapshot(net)
    # Few distinct values, so exact ties (and 0.1 + 0.2 style near-ties)
    # are common rather than vanishingly rare.
    values = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0, 3.0, INF])
    floats = st.floats(0.0, 10.0, allow_nan=False)
    weights = draw(
        st.lists(values | floats, min_size=snapshot.m, max_size=snapshot.m)
    )
    source_i = draw(st.integers(0, snapshot.n - 1))
    return snapshot, weights, source_i


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(weighted_graphs())
    def test_vector_solve_is_run_or_gives_up(self, case):
        snapshot, weights, source_i = case
        array = np.asarray(weights, dtype=np.float64)
        solved = kernel._vector_solve(snapshot, array, [source_i])[0]
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

"""Unit tests for the CSR routing kernel: snapshot, weights, and cache wiring."""

import numpy as np
import pytest

from repro.errors import NoPathError, TopologyError
from repro.network import csr
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network.graph import Network
from repro.network.link import Link
from repro.network.node import NodeKind
from repro.network.routing import (
    HopWeightSpec,
    LatencyWeightSpec,
    PathCache,
    _Entry,
    peek_cache,
)
from repro.network.topology import metro_mesh, scale_free
from tests.oracle import dijkstra, k_shortest_paths, sssp, terminal_tree


def _tree_key(tree):
    """Full content of a ShortestPathTree: source, distances, predecessors."""
    return (tree.source, tree.distance, tree.previous)


class TestSnapshot:
    def test_structure_mirrors_adjacency_order(self, square_net):
        snapshot = csr.get_snapshot(square_net)
        assert snapshot.n == square_net.node_count
        assert snapshot.m == 2 * square_net.link_count
        for u_i, u in enumerate(snapshot.names):
            row = snapshot.indices[
                snapshot.indptr[u_i] : snapshot.indptr[u_i + 1]
            ]
            expected = [snapshot.index[v] for v in square_net.neighbors(u)]
            assert row == expected
        for (u, v), pos in snapshot.edge_pos.items():
            assert snapshot.indices[pos] == snapshot.index[v]
            assert snapshot.heads[pos] == snapshot.index[u]
            link = square_net.link(u, v)
            assert snapshot.latency[pos] == link.latency_ms
            assert snapshot.capacity[pos] == link.capacity_gbps

    def test_reserve_refreshes_overlay_in_place(self, square_net):
        first = csr.get_snapshot(square_net)
        square_net.reserve_edge("A", "B", 7.0, "t")
        second = csr.get_snapshot(square_net)
        assert second is first  # refreshed, not rebuilt
        forward = second.edge_pos[("A", "B")]
        reverse = second.edge_pos[("B", "A")]
        assert second.used[forward] == 7.0
        assert second.used[reverse] == 0.0  # per-direction accounting

    def test_refresh_reads_no_link(self, square_net, monkeypatch):
        """The overlay re-syncs from the ledger slots, not link by link.

        Count floor: reserving on K distinct links and re-syncing makes
        zero ``Link`` state reads (a per-link refresh loop makes >= K).
        """
        csr.get_snapshot(square_net)
        links = list(square_net.links())
        for link in links:
            square_net.reserve_edge(link.u, link.v, 1.5, "t")

        reads = []
        used_gbps = Link.used_gbps

        def counted_used(self, src, dst):
            reads.append("used_gbps")
            return used_gbps(self, src, dst)

        monkeypatch.setattr(Link, "used_gbps", counted_used)
        for name in ("failed", "capacity_gbps"):
            prop = Link.__dict__[name]

            def counted(self, fget=prop.fget, name=name):
                reads.append(name)
                return fget(self)

            monkeypatch.setattr(Link, name, property(counted, prop.fset))
        snapshot = csr.get_snapshot(square_net)
        monkeypatch.undo()

        assert reads == []
        for link in links:
            assert snapshot.used[snapshot.edge_pos[(link.u, link.v)]] == 1.5
            assert snapshot.used[snapshot.edge_pos[(link.v, link.u)]] == 0.0
        assert snapshot.refresh() == 0  # epoch unchanged: nothing to gather

    def test_topology_growth_rebuilds(self, square_net):
        first = csr.get_snapshot(square_net)
        square_net.add_node("E", NodeKind.ROUTER)
        square_net.add_link("E", "A", 100.0, distance_km=2.0)
        second = csr.get_snapshot(square_net)
        assert second is not first
        assert ("E", "A") in second.edge_pos
        assert second.n == first.n + 1

    def test_fail_and_restore_tracked_both_directions(self, square_net):
        snapshot = csr.get_snapshot(square_net)
        square_net.fail_link("A", "D")
        snapshot = csr.get_snapshot(square_net)
        assert snapshot.failed[snapshot.edge_pos[("A", "D")]]
        assert snapshot.failed[snapshot.edge_pos[("D", "A")]]
        square_net.restore_link("A", "D")
        snapshot = csr.get_snapshot(square_net)
        assert not snapshot.failed[snapshot.edge_pos[("A", "D")]]

    def test_residual_list_matches_links(self, square_net):
        square_net.reserve_edge("A", "C", 12.5, "t")
        snapshot = csr.get_snapshot(square_net)
        residual = snapshot.residual_list()
        for (u, v), pos in snapshot.edge_pos.items():
            assert residual[pos] == square_net.link(u, v).residual_gbps(u, v)

    def test_peek_does_not_build(self):
        net = Network("peek")
        net.add_node("a")
        assert csr.peek_snapshot(net) is None
        csr.get_snapshot(net)
        assert csr.peek_snapshot(net) is not None


class TestKernelEquivalence:
    def test_sssp_matches_object_kernel(self, square_net):
        for spec in (LatencyWeightSpec(square_net), HopWeightSpec(square_net)):
            for source in square_net.node_names():
                array_tree = csr.sssp_csr(square_net, source, spec)
                object_tree = sssp(square_net, source, spec.weight_fn())
                assert _tree_key(array_tree) == _tree_key(object_tree)

    def test_shortest_path_matches_dijkstra(self, square_net):
        snapshot = csr.get_snapshot(square_net)
        weights = csr.weight_array(snapshot, ("latency",)).tolist()
        search = csr.array_search(snapshot, weights)
        names = square_net.node_names()
        for source in names:
            for destination in names:
                assert search(source, destination, set(), set()) == dijkstra(
                    square_net, source, destination
                )

    def test_terminal_tree_matches_object_kernel(self):
        net = metro_mesh(n_sites=6, servers_per_site=2)
        servers = net.servers()
        builder = AuxiliaryGraphBuilder(net, demand_gbps=5.0, owner="t")
        array_tree = csr.terminal_tree_csr(
            net, servers[0], servers[1:5], builder
        )
        object_tree = terminal_tree(
            net, servers[0], servers[1:5], builder.weight_fn()
        )
        assert array_tree.parent == object_tree.parent
        assert array_tree.weight == object_tree.weight

    def test_terminal_tree_matches_under_load(self):
        net = scale_free(n_routers=30, m_links=2, seed=3, servers_per_site=1)
        servers = net.servers()
        net.reserve_edge(*net.inter_switch_links()[0], 40.0, "other")
        net.fail_link(*net.inter_switch_links()[1])
        builder = AuxiliaryGraphBuilder(net, demand_gbps=3.0, owner="t")
        array_tree = csr.terminal_tree_csr(
            net, servers[0], servers[1:6], builder
        )
        object_tree = terminal_tree(
            net, servers[0], servers[1:6], builder.weight_fn()
        )
        assert array_tree.parent == object_tree.parent
        assert array_tree.weight == object_tree.weight

    def test_k_shortest_matches_object_kernel(self, square_net):
        spec = LatencyWeightSpec(square_net)
        assert csr.k_shortest_paths_csr(
            square_net, "A", "C", 4, spec
        ) == k_shortest_paths(square_net, "A", "C", 4)

    def test_no_path_parity(self):
        net = Network("split")
        for name in "abc":
            net.add_node(name)
        net.add_link("a", "b", 100.0)
        spec = LatencyWeightSpec(net)
        snapshot = csr.get_snapshot(net)
        search = csr.array_search(
            snapshot, csr.weight_array(snapshot, spec.cache_token()).tolist()
        )
        with pytest.raises(NoPathError):
            search("a", "c", set(), set())
        tree = csr.sssp_csr(net, "a", spec)
        assert not tree.reaches("c")

    def test_unknown_node_raises_topology_error(self, square_net):
        with pytest.raises(TopologyError):
            csr.sssp_csr(square_net, "nope", LatencyWeightSpec(square_net))

    def test_exotic_spec_raises_topology_error(self, square_net):
        class ExoticSpec:
            def cache_token(self):
                return ("exotic",)

            def shareable(self):
                return True

        match = r"weight token \('exotic',\) cannot be lowered"
        with pytest.raises(TopologyError, match=match):
            csr.sssp_csr(square_net, "A", ExoticSpec())
        with pytest.raises(TopologyError, match=match):
            PathCache(square_net).sssp("A", ExoticSpec())


class TestWeightArrays:
    def test_unrecognised_tokens_unlowerable(self, square_net):
        snapshot = csr.get_snapshot(square_net)
        for token in (("exotic",), "latency", (), ("latency", "extra")):
            with pytest.raises(TopologyError, match="cannot be lowered"):
                csr.weight_array(snapshot, token)

    def test_negative_weight_raises_like_object_kernel(self, square_net):
        snapshot = csr.get_snapshot(square_net)
        pos = snapshot.edge_pos[("B", "C")]
        snapshot.latency[pos] = -1.0
        with pytest.raises(
            TopologyError, match=r"negative edge weight -1\.0 on B->C"
        ):
            csr.weight_array(snapshot, ("latency",))

    def test_nan_weight_raises(self, square_net):
        # An aux token carrying a NaN coefficient (AuxiliaryWeights
        # refuses one; the token is built by hand here) lowers to NaN on
        # every edge, which `weights < 0` would have let through.
        snapshot = csr.get_snapshot(square_net)
        token = ("aux", 4.0, None, 1.0, float("nan"), 0.5, 0.01)
        with pytest.raises(TopologyError, match="NaN edge weight nan on A->B"):
            csr.weight_array(snapshot, token)

    def test_latency_and_hop_bit_equal_to_scalar(self, square_net):
        square_net.fail_link("B", "C")
        snapshot = csr.get_snapshot(square_net)
        for spec in (LatencyWeightSpec(square_net), HopWeightSpec(square_net)):
            array = csr.weight_array(snapshot, spec.cache_token())
            weight = spec.weight_fn()
            for (u, v), pos in snapshot.edge_pos.items():
                assert array[pos] == weight(u, v)

    def test_aux_bit_equal_to_scalar(self):
        net = metro_mesh(n_sites=5, servers_per_site=2)
        u, v = net.inter_switch_links()[0]
        net.reserve_edge(u, v, 30.0, "t")
        net.reserve_edge(v, u, 55.0, "other")
        builder = AuxiliaryGraphBuilder(net, demand_gbps=5.0, owner="t")
        snapshot = csr.get_snapshot(net)
        array = csr.weight_array(snapshot, builder.cache_token())
        weight = builder.weight_fn()
        for (a, b), pos in snapshot.edge_pos.items():
            assert array[pos] == weight(a, b)


class TestTreeUnaffected:
    def _tree_and_weights(self, net):
        spec = LatencyWeightSpec(net)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, spec.cache_token())
        tree = csr.sssp_csr(net, "A", spec)
        return snapshot, tree, weights

    def test_equal_arrays_unaffected(self, square_net):
        snapshot, tree, weights = self._tree_and_weights(square_net)
        assert csr.tree_unaffected(snapshot, tree, weights, weights.copy())

    def test_increase_on_losing_edge_unaffected(self, square_net):
        # A-D (latency 40km-ish) loses to A-C-D; making it worse cannot
        # move the tree, and the change-cut proves it.
        snapshot, tree, weights = self._tree_and_weights(square_net)
        new = weights.copy()
        for edge in (("A", "D"), ("D", "A")):
            new[snapshot.edge_pos[edge]] *= 2.0
        assert csr.tree_unaffected(snapshot, tree, weights, new)

    def test_winning_decrease_detected(self, square_net):
        # Dropping A-D far below the A-C-D detour would reroute D.
        snapshot, tree, weights = self._tree_and_weights(square_net)
        new = weights.copy()
        new[snapshot.edge_pos[("A", "D")]] = 1e-6
        assert not csr.tree_unaffected(snapshot, tree, weights, new)

    def test_tree_edge_change_detected(self, square_net):
        snapshot, tree, weights = self._tree_and_weights(square_net)
        assert tree.previous["C"] == "A"  # A-C is a tree edge
        new = weights.copy()
        new[snapshot.edge_pos[("A", "C")]] *= 2.0
        assert not csr.tree_unaffected(snapshot, tree, weights, new)

    def test_never_false_positive_on_random_deltas(self):
        net = scale_free(n_routers=25, m_links=2, seed=5, servers_per_site=0)
        spec = LatencyWeightSpec(net)
        snapshot = csr.get_snapshot(net)
        weights = csr.weight_array(snapshot, spec.cache_token())
        source = net.node_names()[0]
        tree = csr.sssp_csr(net, source, spec)
        rng = np.random.default_rng(9)
        for _ in range(20):
            new = weights * rng.uniform(0.5, 2.0, size=weights.shape)
            if csr.tree_unaffected(snapshot, tree, weights, new):
                fresh = csr.sssp_tree(snapshot, source, new.tolist())
                assert fresh.distance == tree.distance
                assert fresh.previous == tree.previous


class TestCacheCsrIntegration:
    def test_stores_and_hits_csr_entries(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        first = cache.sssp("A", spec)
        (entry,) = cache._entries.values()
        assert isinstance(entry, _Entry)
        second = cache.sssp("A", spec)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_csr_and_object_caches_agree(self, square_net):
        spec = LatencyWeightSpec(square_net)
        for source in square_net.node_names():
            array_tree = PathCache(square_net).sssp(source, spec)
            object_tree = sssp(square_net, source, spec.weight_fn())
            assert _tree_key(array_tree) == _tree_key(object_tree)

    def test_lookup_repairs_surviving_entries(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cached = cache.sssp("A", spec)
        assert cached.previous["D"] == "C"  # A-D unused by the tree
        square_net.fail_link("A", "D")
        # The lookup revalidates and repairs the entry in place; it
        # serves the post-failure truth.
        repaired = cache.sssp("A", spec)
        assert repaired is cached
        fresh = sssp(square_net, "A", spec.weight_fn())
        assert repaired.distance == fresh.distance
        assert repaired.previous == fresh.previous
        assert cache.stats.hits == 1
        assert cache.stats.revalidations == 1
        assert cache.stats.repairs == 1
        assert cache.stats.invalidations == 0

    def test_lookup_drops_entries_the_cut_cannot_clear(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cache.sssp("A", spec)
        square_net.fail_link("A", "C")  # a tree edge
        recomputed = cache.sssp("A", spec)
        fresh = sssp(square_net, "A", spec.weight_fn())
        assert recomputed.distance == fresh.distance
        assert recomputed.previous == fresh.previous
        assert cache.stats.revalidations == 1
        assert cache.stats.invalidations == 1
        assert cache.stats.repairs == 0
        assert cache.stats.misses == 2
        assert len(cache) == 1

    def test_unchanged_array_is_not_a_repair(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cache.sssp("A", spec)
        square_net.reserve_edge("A", "B", 1.0, "t1")  # epoch moves, latency not
        cache.sssp("A", spec)
        assert cache.stats.revalidations == 1
        assert cache.stats.hits == 1
        assert cache.stats.repairs == 0

    def test_batched_sssp_matches_single_calls(self):
        net = metro_mesh(n_sites=6, servers_per_site=2)
        spec = LatencyWeightSpec(net)
        sources = net.servers()[:4]
        cache = PathCache(net)
        batched = cache.batched_sssp([*sources, sources[0]], spec)
        assert list(batched) == sources  # deduped, first-occurrence order
        for source in sources:
            assert _tree_key(batched[source]) == _tree_key(
                sssp(net, source, spec.weight_fn())
            )

    def test_cached_no_path_verdicts_replay(self):
        net = Network("split")
        for name in "ab":
            net.add_node(name)
        cache = PathCache(net)
        spec = LatencyWeightSpec(net)
        for _ in range(2):
            with pytest.raises(NoPathError):
                cache.shortest_path("a", "b", spec)
        assert cache.stats.hits == 1


class TestNodeFailurePruning:
    """Satellite pin: a downed node's entries die by endpoint containment."""

    def test_prune_drops_entries_touching_dead_nodes(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cache.sssp("A", spec)
        cache.shortest_path("B", "C", spec)
        assert len(cache) == 2
        dropped = cache.prune(dead_nodes=("A",))
        assert dropped == 1
        assert all(
            "A" not in entry.endpoints for entry in cache._entries.values()
        )
        assert len(cache) == 1  # the B->C entry survives

    def test_prune_drops_unreachable_source_entries(self):
        # The regression this pins: a tree rooted at an isolated node
        # reads nothing, so read-log revalidation alone would keep it
        # serving "node exists and is isolated" after the node died.
        net = Network("island")
        for name in "ab":
            net.add_node(name)
        cache = PathCache(net)
        entry_spec = LatencyWeightSpec(net)
        tree = cache.sssp("a", entry_spec)
        assert not tree.previous  # isolated: nothing read
        assert cache.prune(dead_nodes=("a",)) == 1

    def test_orchestrator_node_failure_prunes_by_containment(self):
        from repro.core.flexible import FlexibleScheduler
        from repro.orchestrator.orchestrator import Orchestrator

        net = metro_mesh(n_sites=6, servers_per_site=2)
        orchestrator = Orchestrator(net, FlexibleScheduler())
        servers = net.servers()
        from repro.tasks.aitask import AITask
        from repro.tasks.models import get_model

        orchestrator.admit(
            AITask(
                task_id="pin",
                model=get_model("resnet18"),
                global_node=servers[0],
                local_nodes=tuple(servers[1:5]),
                demand_gbps=5.0,
            )
        )
        cache = peek_cache(net)
        assert cache is not None and len(cache) > 0
        victim = servers[1]
        assert any(
            victim in entry.endpoints for entry in cache._entries.values()
        )
        orchestrator.handle_node_failure(victim)
        assert all(
            victim not in entry.endpoints
            for entry in cache._entries.values()
        )

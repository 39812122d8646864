"""Unit tests for the routing kernel: SSSP trees and the path cache."""

import pytest

from repro.errors import NoPathError, TopologyError
from repro.network.auxiliary import AuxiliaryGraphBuilder
from repro.network import routing
from repro.network.graph import Network
from repro.network.routing import (
    HopWeightSpec,
    LatencyWeightSpec,
    PathCache,
    get_cache,
    peek_cache,
)
from repro.network.topology import metro_mesh, scale_free
from tests.oracle import dijkstra, k_shortest_paths, object_oracle, terminal_tree


class TestSssp:
    def test_matches_point_to_point_dijkstra(self, square_net):
        for spec in (LatencyWeightSpec(square_net), HopWeightSpec(square_net)):
            weight = spec.weight_fn()
            for source in square_net.node_names():
                tree = PathCache(square_net).sssp(source, spec)
                for destination in square_net.node_names():
                    expected = dijkstra(square_net, source, destination, weight)
                    assert tree.path_to(destination) == expected

    def test_matches_on_larger_topology(self):
        net = metro_mesh(n_sites=8, servers_per_site=2)
        spec = LatencyWeightSpec(net)
        weight = spec.weight_fn()
        names = net.node_names()
        for source in names[:4]:
            tree = PathCache(net).sssp(source, spec)
            for destination in names:
                assert tree.path_to(destination) == dijkstra(
                    net, source, destination, weight
                )

    def test_unreachable_raises(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_node("c")
        net.add_link("a", "b", 100.0)
        tree = PathCache(net).sssp("a", LatencyWeightSpec(net))
        assert tree.reaches("b")
        assert not tree.reaches("c")
        with pytest.raises(NoPathError):
            tree.path_to("c")

    def test_source_path_is_trivial(self, square_net):
        tree = PathCache(square_net).sssp("A", LatencyWeightSpec(square_net))
        assert tree.path_to("A").nodes == ("A",)
        assert tree.path_to("A").weight == 0.0

    def test_unknown_source_rejected(self, square_net):
        with pytest.raises(TopologyError):
            PathCache(square_net).sssp("nope", LatencyWeightSpec(square_net))


class TestGenerationsAndEpoch:
    def test_reserve_writes_slot_and_bumps_epoch(self, square_net):
        link = square_net.link("A", "B")
        used = square_net.ledger.used
        before_slots, before_epoch = list(used), square_net.epoch
        square_net.reserve_edge("A", "B", 5.0, "t")
        assert square_net.epoch == before_epoch + 1
        slot = link.slot("A", "B")
        assert used[slot] == 5.0
        # Only the reserved direction's slot moved.
        assert [x for i, x in enumerate(used) if i != slot] == [
            x for i, x in enumerate(before_slots) if i != slot
        ]

    def test_release_owner_bumps_only_touched_links(self, square_net):
        square_net.reserve_edge("A", "B", 5.0, "t")
        square_net.reserve_edge("C", "D", 2.0, "other")
        ledger = square_net.ledger
        ab = square_net.link("A", "B")
        before = list(ledger.used)
        epoch = square_net.epoch
        square_net.release_owner("t")
        assert square_net.epoch == epoch + 1  # one touched direction
        assert ledger.used[ab.slot("A", "B")] == 0.0
        for i, x in enumerate(ledger.used):  # untouched slots unchanged
            if i != ab.slot("A", "B"):
                assert x == before[i]

    def test_noop_release_does_not_bump(self, square_net):
        epoch = square_net.epoch
        square_net.release_owner("ghost")
        assert square_net.epoch == epoch

    def test_fail_and_restore_bump_once_each(self, square_net):
        link = square_net.link("A", "B")
        failed = square_net.ledger.failed
        epoch = square_net.epoch
        square_net.fail_link("A", "B")
        square_net.fail_link("A", "B")  # idempotent: no second bump
        assert square_net.epoch == epoch + 1
        assert failed[link.slot("A", "B")] == failed[link.slot("B", "A")] == 1
        assert sum(failed) == 2  # no other link's slot moved
        square_net.restore_link("A", "B")
        assert square_net.epoch == epoch + 2
        assert sum(failed) == 0


class TestPathCache:
    def test_hit_on_unchanged_network(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        first = cache.shortest_path("A", "C", spec)
        second = cache.shortest_path("A", "C", spec)
        assert first == second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_latency_entries_survive_reservations(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cache.shortest_path("A", "C", spec)
        square_net.reserve_edge("A", "C", 10.0, "t")  # latency unchanged
        again = cache.shortest_path("A", "C", spec)
        assert again == dijkstra(square_net, "A", "C")
        assert cache.stats.hits == 1
        assert cache.stats.revalidations == 1

    def test_failure_invalidates_affected_entry(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        direct = cache.shortest_path("A", "C", spec)
        assert direct.nodes == ("A", "C")
        square_net.fail_link("A", "C")
        rerouted = cache.shortest_path("A", "C", spec)
        assert rerouted == dijkstra(square_net, "A", "C")
        assert rerouted.nodes != direct.nodes
        assert cache.stats.invalidations == 1

    def test_restore_revalidates_or_recomputes_correctly(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        before = cache.shortest_path("A", "C", spec)
        square_net.fail_link("A", "C")
        cache.shortest_path("A", "C", spec)
        square_net.restore_link("A", "C")
        after = cache.shortest_path("A", "C", spec)
        assert after == before == dijkstra(square_net, "A", "C")

    def test_no_path_outcome_cached(self):
        net = Network()
        for name in "ab":
            net.add_node(name)
        net.add_node("c")
        net.add_link("a", "b", 100.0)
        cache = PathCache(net)
        spec = LatencyWeightSpec(net)
        for _ in range(2):
            with pytest.raises(NoPathError):
                cache.shortest_path("a", "c", spec)
        assert cache.stats.hits == 1

    def test_hop_and_latency_specs_do_not_collide(self, square_net):
        cache = PathCache(square_net)
        latency = cache.shortest_path("B", "D", LatencyWeightSpec(square_net))
        hops = cache.shortest_path("B", "D", HopWeightSpec(square_net))
        assert cache.stats.misses == 2
        assert latency.weight != hops.weight

    def test_k_shortest_matches_uncached(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cached = cache.k_shortest_paths("A", "C", 3, spec)
        plain = k_shortest_paths(square_net, "A", "C", 3)
        assert cached == plain
        assert cache.k_shortest_paths("A", "C", 3, spec) == plain
        assert cache.stats.hits == 1

    def test_terminal_tree_matches_uncached(self):
        net = metro_mesh(n_sites=8, servers_per_site=2)
        cache = PathCache(net)
        servers = net.servers()
        root, terminals = servers[0], servers[3:9]
        builder = AuxiliaryGraphBuilder(net, demand_gbps=5.0, owner="task")
        cached = cache.terminal_tree(root, terminals, builder)
        plain = terminal_tree(net, root, terminals, builder.weight_fn())
        assert cached.parent == plain.parent
        assert cached.weight == plain.weight

    def test_terminal_tree_invalidated_by_reservation_on_read_link(self):
        net = metro_mesh(n_sites=6, servers_per_site=2)
        cache = PathCache(net)
        servers = net.servers()
        root, terminals = servers[0], servers[2:6]
        builder = AuxiliaryGraphBuilder(net, demand_gbps=5.0, owner="task")
        first = cache.terminal_tree(root, terminals, builder)
        # Load one of the tree's own links heavily: congestion changes.
        child, parent = first.edges[0]
        net.reserve_edge(child, parent, 60.0, "background")
        fresh_builder = AuxiliaryGraphBuilder(net, demand_gbps=5.0, owner="task")
        second = cache.terminal_tree(root, terminals, fresh_builder)
        expected = terminal_tree(net, root, terminals, fresh_builder.weight_fn())
        assert second.parent == expected.parent
        assert second.weight == expected.weight

    def test_topology_growth_invalidates(self):
        """A newly added link must be visible to cached queries.

        The epoch alone cannot say which paths a new link opens (no
        *read* ledger slot changed), so the cache keys on the network's
        topology_version separately.
        """
        net = Network()
        for name in "abc":
            net.add_node(name)
        net.add_link("a", "b", 100.0, latency_ms=5.0)
        net.add_link("b", "c", 100.0, latency_ms=5.0)
        cache = PathCache(net)
        spec = LatencyWeightSpec(net)
        assert cache.shortest_path("a", "c", spec).nodes == ("a", "b", "c")
        net.add_link("a", "c", 100.0, latency_ms=1.0)
        shortcut = cache.shortest_path("a", "c", spec)
        assert shortcut == dijkstra(net, "a", "c")
        assert shortcut.nodes == ("a", "c")

    def test_prune_drops_entries_after_topology_growth(self):
        net = Network()
        for name in "ab":
            net.add_node(name)
        net.add_link("a", "b", 100.0)
        cache = PathCache(net)
        cache.shortest_path("a", "b", LatencyWeightSpec(net))
        net.add_node("c")
        net.add_link("b", "c", 100.0)
        assert cache.prune() == 1
        assert len(cache) == 0

    def test_lru_eviction_bounded(self, square_net, monkeypatch):
        monkeypatch.setattr(routing, "MAX_ENTRIES", 2)
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        for source in ("A", "B", "C", "D"):
            cache.sssp(source, spec)
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_invalidate_drops_everything(self, square_net):
        cache = PathCache(square_net)
        cache.sssp("A", LatencyWeightSpec(square_net))
        cache.invalidate()
        assert len(cache) == 0

    def test_lookup_drops_stale_keeps_fresh(self, square_net):
        cache = PathCache(square_net)
        spec = LatencyWeightSpec(square_net)
        cache.shortest_path("A", "C", spec)
        cache.shortest_path("D", "B", spec)
        square_net.fail_link("A", "B")
        assert len(cache) == 2  # a failure alone touches no entry
        # The A-rooted SSSP used A-B as a tree edge, so its lookup
        # recomputes; the D-rooted one never used it and is repaired.
        for source, destination in (("A", "C"), ("D", "B")):
            assert cache.shortest_path(source, destination, spec) == dijkstra(
                square_net, source, destination
            )
        assert cache.stats.revalidations == 2
        assert cache.stats.invalidations == 1
        assert cache.stats.repairs == 1
        assert cache.stats.hits == 1
        assert len(cache) == 2


class TestAuxiliarySpec:
    def test_fresh_owners_share_token(self, square_net):
        a = AuxiliaryGraphBuilder(square_net, demand_gbps=5.0, owner="t1")
        b = AuxiliaryGraphBuilder(square_net, demand_gbps=5.0, owner="t2")
        assert a.cache_token() == b.cache_token()
        assert a.shareable() and b.shareable()

    def test_holding_owner_gets_private_token(self, square_net):
        square_net.reserve_edge("A", "B", 5.0, "t1")
        a = AuxiliaryGraphBuilder(square_net, demand_gbps=5.0, owner="t1")
        b = AuxiliaryGraphBuilder(square_net, demand_gbps=5.0, owner="t2")
        assert a.cache_token() != b.cache_token()
        assert not a.shareable()
        assert b.shareable()

    def test_demand_lands_in_token(self, square_net):
        a = AuxiliaryGraphBuilder(square_net, demand_gbps=5.0)
        b = AuxiliaryGraphBuilder(square_net, demand_gbps=6.0)
        assert a.cache_token() != b.cache_token()

    def test_unshareable_spec_bypasses_storage(self, square_net):
        square_net.reserve_edge("A", "B", 5.0, "t1")
        cache = PathCache(square_net)
        builder = AuxiliaryGraphBuilder(square_net, demand_gbps=5.0, owner="t1")
        cache.sssp("A", builder)
        assert len(cache) == 0
        assert cache.stats.misses == 1


class TestCacheAttachment:
    def test_get_cache_is_singleton_per_network(self, square_net):
        assert peek_cache(square_net) is None
        cache = get_cache(square_net)
        assert get_cache(square_net) is cache
        assert peek_cache(square_net) is cache

    def test_get_cache_evicts_at_module_bound(self, square_net, monkeypatch):
        assert routing.MAX_ENTRIES == 1024
        monkeypatch.setattr(routing, "MAX_ENTRIES", 2)
        cache = get_cache(square_net)
        for source in "ABCD":
            cache.sssp(source, LatencyWeightSpec(square_net))
        assert get_cache(square_net) is cache
        assert len(cache) == 2  # oldest entries evicted
        assert cache.stats.evictions == 2

    def test_cached_no_path_traceback_does_not_grow(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        cache = PathCache(net)
        spec = LatencyWeightSpec(net)
        lengths = []
        for _ in range(3):
            try:
                cache.shortest_path("a", "b", spec)
            except NoPathError as exc:
                frames = 0
                tb = exc.__traceback__
                while tb is not None:
                    frames += 1
                    tb = tb.tb_next
                lengths.append(frames)
        assert lengths[1] == lengths[2]  # cached re-raise stays flat

    def test_topology_copy_starts_cold(self, square_net):
        get_cache(square_net).sssp("A", LatencyWeightSpec(square_net))
        clone = square_net.copy_topology()
        assert peek_cache(clone) is None


class TestSchedulerWiring:
    def _task(self, net, n_locals=4):
        from repro.tasks.aitask import AITask
        from repro.tasks.models import get_model

        servers = net.servers()
        return AITask(
            task_id="wire",
            model=get_model("resnet18"),
            global_node=servers[0],
            local_nodes=tuple(servers[1 : 1 + n_locals]),
            demand_gbps=5.0,
        )

    def test_flexible_cached_matches_uncached(self):
        """The production path matches the uncached object oracle."""
        from repro.core.flexible import FlexibleScheduler

        net_a = metro_mesh(n_sites=8, servers_per_site=2)
        net_b = metro_mesh(n_sites=8, servers_per_site=2)
        cached = FlexibleScheduler().schedule(self._task(net_a), net_a)
        with object_oracle():
            plain = FlexibleScheduler().schedule(self._task(net_b), net_b)
        assert cached.broadcast_tree.parent == plain.broadcast_tree.parent
        assert cached.upload_tree.parent == plain.upload_tree.parent
        assert cached.broadcast_edge_rates == plain.broadcast_edge_rates
        assert cached.upload_edge_rates == plain.upload_edge_rates

    def test_fixed_and_baselines_cached_match_uncached(self):
        from repro.core.baselines import ChainScheduler, KspLoadBalancedScheduler
        from repro.core.fixed import FixedScheduler

        for scheduler_cls in (
            FixedScheduler,
            KspLoadBalancedScheduler,
            ChainScheduler,
        ):
            net_a = metro_mesh(n_sites=8, servers_per_site=2)
            net_b = metro_mesh(n_sites=8, servers_per_site=2)
            cached = scheduler_cls().schedule(self._task(net_a), net_a)
            with object_oracle():
                plain = scheduler_cls().schedule(self._task(net_b), net_b)
            assert cached.broadcast_edge_rates == plain.broadcast_edge_rates
            assert cached.upload_edge_rates == plain.upload_edge_rates

    def test_sequential_schedule_release_identical_on_scale_free(self):
        from repro.core.flexible import FlexibleScheduler
        from repro.sim.rng import RandomStreams
        from repro.tasks.aitask import AITask
        from repro.tasks.models import get_model

        def run():
            net = scale_free(n_routers=30, m_links=2, seed=3, servers_per_site=1)
            rng = RandomStreams(11).stream("placement")
            scheduler = FlexibleScheduler()
            signatures = []
            for index in range(12):
                chosen = rng.sample(net.servers(), 6)
                task = AITask(
                    task_id=f"seq-{index}",
                    model=get_model("resnet18"),
                    global_node=chosen[0],
                    local_nodes=tuple(chosen[1:]),
                    demand_gbps=4.0,
                )
                schedule = scheduler.schedule(task, net)
                signatures.append(
                    (
                        sorted(schedule.broadcast_tree.parent.items()),
                        sorted(schedule.upload_edge_rates.items()),
                    )
                )
                scheduler.release(schedule, net)
            return signatures

        production = run()
        with object_oracle():
            assert run() == production


class TestOrchestratorPruning:
    def test_failure_event_serves_only_fresh_entries(self):
        from repro.core.flexible import FlexibleScheduler
        from repro.network import csr
        from repro.orchestrator.orchestrator import Orchestrator

        net = metro_mesh(n_sites=6, servers_per_site=2)
        orchestrator = Orchestrator(net, FlexibleScheduler())
        task = TestSchedulerWiring()._task(net)
        orchestrator.admit(task)
        cache = peek_cache(net)
        assert cache is not None and len(cache) > 0
        u, v = net.inter_switch_links()[0]
        orchestrator.handle_link_failure(u, v)
        # The handler leaves the cache alone; every entry a lookup would
        # still serve must equal a fresh computation under the
        # post-failure weights.
        snapshot = csr.get_snapshot(net)
        for (kind, source, token), entry in list(cache._entries.items()):
            assert kind == "sssp"
            if not cache._validate(entry, snapshot):
                continue
            fresh = csr.sssp_tree(
                snapshot, source, csr.weight_array(snapshot, token).tolist()
            )
            assert entry.value.distance == fresh.distance
            assert entry.value.previous == fresh.previous

"""Tests for network-state snapshots, node fault idempotence, and the
link-ledger epoch and slots the routing cache and CSR snapshot key on."""

import pytest

from repro.errors import ConfigurationError
from repro.network.graph import Network
from repro.network.state import NetworkState


class TestCapture:
    def test_covers_both_directions(self, square_net):
        state = NetworkState.capture(square_net)
        assert len(state.links) == 2 * square_net.link_count

    def test_reflects_reservations(self, square_net):
        square_net.reserve_edge("A", "B", 30.0, "task")
        state = NetworkState.capture(square_net, time_ms=5.0)
        record = state.as_dict()[("A", "B")]
        assert record.used_gbps == pytest.approx(30.0)
        assert record.residual_gbps == pytest.approx(70.0)
        assert record.utilisation == pytest.approx(0.3)
        assert state.time_ms == 5.0

    def test_snapshot_is_immutable_view(self, square_net):
        state = NetworkState.capture(square_net)
        square_net.reserve_edge("A", "B", 30.0, "task")
        assert state.as_dict()[("A", "B")].used_gbps == 0.0


class TestAggregates:
    def test_total_used(self, square_net):
        square_net.reserve_edge("A", "B", 10.0, "x")
        square_net.reserve_edge("B", "A", 20.0, "y")
        state = NetworkState.capture(square_net)
        assert state.total_used_gbps == pytest.approx(30.0)

    def test_max_utilisation(self, square_net):
        square_net.reserve_edge("A", "B", 80.0, "x")
        square_net.reserve_edge("B", "C", 20.0, "y")
        state = NetworkState.capture(square_net)
        assert state.max_utilisation == pytest.approx(0.8)

    def test_max_utilisation_empty(self):
        from repro.network.graph import Network

        assert NetworkState.capture(Network()).max_utilisation == 0.0

    def test_hot_links(self, square_net):
        square_net.reserve_edge("A", "B", 90.0, "x")
        state = NetworkState.capture(square_net)
        hot = state.hot_links(threshold=0.8)
        assert [(r.src, r.dst) for r in hot] == [("A", "B")]


class TestNodeFaultIdempotence:
    def test_fail_node_twice_counts_each_endpoint_once(self, square_net):
        square_net.fail_node("A")
        square_net.fail_node("A")  # no-op: endpoint counts must not double
        assert square_net.link("A", "B").failed
        square_net.restore_node("A")
        assert not square_net.link("A", "B").failed
        assert not square_net.node("A").failed

    def test_restore_node_twice_is_noop(self, square_net):
        square_net.fail_node("A")
        square_net.restore_node("A")
        square_net.restore_node("A")  # must not raise or underflow counts
        assert not square_net.node("A").failed
        # A subsequent clean fail/restore cycle still balances.
        square_net.fail_node("A")
        square_net.restore_node("A")
        assert not square_net.link("A", "B").failed

    def test_restore_never_underflows_endpoint_count(self, square_net):
        square_net.fail_node("A")
        square_net.restore_node("A")
        square_net.restore_node("A")
        # Direct endpoint repair beyond zero is rejected at the link level.
        with pytest.raises(ConfigurationError):
            square_net.link("A", "B").mark_endpoint_up()

    def test_node_and_link_faults_compose(self, square_net):
        square_net.fail_node("A")
        square_net.fail_link("A", "B")  # span failure during the outage
        square_net.restore_node("A")
        assert square_net.link("A", "B").failed  # span failure survives
        square_net.restore_link("A", "B")
        assert not square_net.link("A", "B").failed

    def test_link_between_two_down_nodes_needs_both_up(self, square_net):
        square_net.fail_node("A")
        square_net.fail_node("B")
        square_net.restore_node("A")
        assert square_net.link("A", "B").failed
        square_net.restore_node("B")
        assert not square_net.link("A", "B").failed


class TestGenerationBumping:
    def test_fail_node_bumps_incident_links_only(self, square_net):
        ledger = square_net.ledger
        incident = square_net.link("A", "B")
        distant = square_net.link("B", "C")
        epoch = square_net.epoch
        square_net.fail_node("A")
        # One bump per incident link.
        assert square_net.epoch == epoch + square_net.degree("A")
        for src, dst in (("A", "B"), ("B", "A")):
            assert ledger.failed[incident.slot(src, dst)] == 1
        for src, dst in (("B", "C"), ("C", "B")):
            assert ledger.failed[distant.slot(src, dst)] == 0

    def test_idempotent_node_fail_does_not_bump(self, square_net):
        square_net.fail_node("A")
        epoch = square_net.epoch
        square_net.fail_node("A")
        assert square_net.epoch == epoch
        square_net.restore_node("A")
        assert square_net.epoch > epoch
        epoch = square_net.epoch
        square_net.restore_node("A")
        assert square_net.epoch == epoch

    def test_idempotent_link_fail_does_not_bump(self, square_net):
        square_net.fail_link("A", "B")
        epoch = square_net.epoch
        square_net.fail_link("A", "B")
        assert square_net.epoch == epoch

    def test_reserve_and_release_bump_epoch(self, square_net):
        epoch = square_net.epoch
        square_net.reserve_edge("A", "B", 5.0, "t")
        assert square_net.epoch == epoch + 1
        square_net.release_owner("t")
        assert square_net.epoch == epoch + 2

    def test_capacity_change_bumps_epoch(self, square_net):
        link = square_net.link("A", "B")
        ledger = square_net.ledger
        epoch = square_net.epoch
        link.capacity_gbps = 40.0  # partial degradation
        assert link.capacity_gbps == 40.0
        assert ledger.capacity[link.slot("A", "B")] == 40.0
        assert ledger.capacity[link.slot("B", "A")] == 40.0
        assert square_net.epoch == epoch + 1
        link.capacity_gbps = 40.0  # no-op write
        assert square_net.epoch == epoch + 1
        with pytest.raises(ConfigurationError):
            link.capacity_gbps = 0.0
        assert square_net.epoch == epoch + 1

    def test_standalone_link_has_private_epoch(self):
        from repro.network.link import Link

        link = Link("a", "b", 100.0)
        other = Link("a", "b", 100.0)
        assert link.ledger is not other.ledger
        assert (link.slot("a", "b"), link.slot("b", "a")) == (0, 1)
        epoch = link.ledger.epoch
        link.reserve("a", "b", 5.0, "t")
        assert link.ledger.epoch == epoch + 1
        assert list(link.ledger.used) == [5.0, 0.0]
        assert other.ledger.epoch == 0
        assert list(other.ledger.used) == [0.0, 0.0]

    def test_topology_growth_bumps_epoch(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        epoch = net.epoch
        net.add_link("a", "b", 100.0)
        assert net.epoch == epoch + 1

    def test_has_reservations(self, square_net):
        assert not square_net.has_reservations("t")
        square_net.reserve_edge("A", "B", 5.0, "t")
        assert square_net.has_reservations("t")
        square_net.release_owner("t")
        assert not square_net.has_reservations("t")

    def test_has_reservations_tracks_per_direction_release(self, square_net):
        square_net.reserve_edge("A", "B", 5.0, "t")
        square_net.reserve_edge("B", "A", 5.0, "t")
        square_net.link("A", "B").release("A", "B", "t")
        assert square_net.has_reservations("t")  # B->A still held
        square_net.link("A", "B").release("B", "A", "t")
        assert not square_net.has_reservations("t")


class TestReleaseOwnerIndex:
    def _count_link_releases(self, monkeypatch):
        from repro.network.link import Link

        calls = []
        original = Link.release_owner

        def counting(link, owner):
            calls.append((link.u, link.v))
            return original(link, owner)

        monkeypatch.setattr(Link, "release_owner", counting)
        return calls

    def test_touches_only_the_owners_links(self, square_net, monkeypatch):
        square_net.reserve_edge("C", "D", 1.5, "t")
        square_net.reserve_edge("A", "B", 2.25, "t")
        square_net.reserve_edge("B", "C", 3.0, "other")
        square_net.reserve_edge("D", "A", 4.0, "other")
        calls = self._count_link_releases(monkeypatch)
        assert square_net.release_owner("t") == 1.5 + 2.25
        # Link insertion order (A-B before C-D), not reservation order.
        assert calls == [("A", "B"), ("C", "D")]
        assert not square_net.has_reservations("t")
        assert square_net.has_reservations("other")
        assert square_net.link("B", "C").used_gbps("B", "C") == 3.0

    def test_total_sums_in_link_insertion_order(self, square_net):
        rates = {("C", "D"): 1.0, ("D", "A"): 1.0, ("A", "B"): 1e16}
        for (u, v), gbps in rates.items():
            square_net.link(u, v).capacity_gbps = 2e16
            square_net.reserve_edge(u, v, gbps, "t")
        # Insertion order A-B, C-D, A-D sums (1e16 + 1.0) + 1.0; the
        # reservation order (1.0 + 1.0) + 1e16 rounds differently.
        assert square_net.release_owner("t") == (1e16 + 1.0) + 1.0
        assert (1e16 + 1.0) + 1.0 != (1.0 + 1.0) + 1e16

    def test_unknown_owner_releases_nothing(self, square_net, monkeypatch):
        square_net.reserve_edge("A", "B", 5.0, "t")
        calls = self._count_link_releases(monkeypatch)
        released = square_net.release_owner("nobody")
        assert released == 0.0 and type(released) is float
        assert calls == []

"""Tests for capacitated links and owner-tagged reservations."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.network.link import Link


def make_link(**kwargs):
    defaults = dict(capacity_gbps=100.0, distance_km=20.0)
    defaults.update(kwargs)
    return Link("u", "v", **defaults)


class TestConstruction:
    def test_latency_from_distance(self):
        link = make_link(distance_km=200.0)
        assert link.latency_ms == pytest.approx(1.0)  # 5 us/km

    def test_explicit_latency_overrides_distance(self):
        link = make_link(distance_km=200.0, latency_ms=0.123)
        assert link.latency_ms == 0.123

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Link("u", "u", 10.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Link("u", "v", 0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            Link("u", "v", 10.0, distance_km=-1.0)

    def test_endpoints(self):
        assert make_link().endpoints == ("u", "v")


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    """NaN slips past ``<= 0``/``< 0`` and +inf past both: fail closed."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("field", ["capacity_gbps", "distance_km", "latency_ms"])
    def test_constructor(self, field, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            make_link(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_capacity_setter(self, value):
        link = make_link()
        with pytest.raises(ConfigurationError, match="must be finite"):
            link.capacity_gbps = value
        assert link.capacity_gbps == 100.0
        assert link.residual_gbps("u", "v") == 100.0

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_reserve(self, value):
        link = make_link()
        epoch = link.ledger.epoch
        with pytest.raises(ConfigurationError, match="must be finite and > 0"):
            link.reserve("u", "v", value, "task-a")
        assert link.used_gbps("u", "v") == 0.0
        assert "task-a" not in link.owners()
        assert link.ledger.epoch == epoch
        assert list(link.ledger.used) == [0.0, 0.0]


class TestReservations:
    def test_directions_are_independent(self):
        link = make_link()
        link.reserve("u", "v", 80.0, "task-a")
        assert link.residual_gbps("u", "v") == pytest.approx(20.0)
        assert link.residual_gbps("v", "u") == pytest.approx(100.0)

    def test_reservations_accumulate_per_owner(self):
        link = make_link()
        link.reserve("u", "v", 10.0, "task-a")
        link.reserve("u", "v", 15.0, "task-a")
        assert link.owner_gbps("u", "v", "task-a") == pytest.approx(25.0)

    def test_overbooking_rejected(self):
        link = make_link()
        link.reserve("u", "v", 90.0, "task-a")
        with pytest.raises(CapacityError):
            link.reserve("u", "v", 20.0, "task-b")

    def test_failed_reservation_leaves_state_unchanged(self):
        link = make_link()
        link.reserve("u", "v", 90.0, "task-a")
        with pytest.raises(CapacityError):
            link.reserve("u", "v", 20.0, "task-b")
        assert link.used_gbps("u", "v") == pytest.approx(90.0)
        assert link.owner_gbps("u", "v", "task-b") == 0.0

    def test_exact_fill_allowed(self):
        link = make_link()
        link.reserve("u", "v", 100.0, "task-a")
        assert link.residual_gbps("u", "v") == pytest.approx(0.0)

    def test_zero_reservation_rejected(self):
        link = make_link()
        with pytest.raises(ConfigurationError):
            link.reserve("u", "v", 0.0, "task-a")

    def test_unknown_direction_rejected(self):
        link = make_link()
        with pytest.raises(ConfigurationError):
            link.reserve("u", "w", 1.0, "task-a")

    def test_utilisation(self):
        link = make_link()
        link.reserve("u", "v", 25.0, "task-a")
        assert link.utilisation("u", "v") == pytest.approx(0.25)


class TestRelease:
    def test_release_returns_amount(self):
        link = make_link()
        link.reserve("u", "v", 30.0, "task-a")
        assert link.release("u", "v", "task-a") == pytest.approx(30.0)
        assert link.residual_gbps("u", "v") == pytest.approx(100.0)

    def test_release_absent_owner_is_zero(self):
        assert make_link().release("u", "v", "ghost") == 0.0

    def test_release_owner_clears_both_directions(self):
        link = make_link()
        link.reserve("u", "v", 10.0, "task-a")
        link.reserve("v", "u", 20.0, "task-a")
        link.reserve("u", "v", 5.0, "task-b")
        assert link.release_owner("task-a") == pytest.approx(30.0)
        assert link.used_gbps("u", "v") == pytest.approx(5.0)
        assert link.used_gbps("v", "u") == 0.0

    def test_release_does_not_touch_other_owners(self):
        link = make_link()
        link.reserve("u", "v", 10.0, "task-a")
        link.reserve("u", "v", 20.0, "task-b")
        link.release("u", "v", "task-a")
        assert link.owner_gbps("u", "v", "task-b") == pytest.approx(20.0)


class TestIteration:
    def test_reservations_listing_sorted_by_owner(self):
        link = make_link()
        link.reserve("u", "v", 10.0, "zeta")
        link.reserve("u", "v", 5.0, "alpha")
        owners = [r.owner for r in link.reservations("u", "v")]
        assert owners == ["alpha", "zeta"]

    def test_reservation_records_rates(self):
        link = make_link()
        link.reserve("u", "v", 12.5, "task-a")
        (record,) = link.reservations("u", "v")
        assert record.gbps == pytest.approx(12.5)

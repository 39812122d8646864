"""Tests for the WDM grid and wavelength assignment policies."""

import random

import pytest

from repro.errors import ConfigurationError, WavelengthError
from repro.network.graph import Network
from repro.optical.wavelength import AssignmentPolicy, WDMGrid


@pytest.fixture
def chain():
    net = Network()
    for name in "abcd":
        net.add_node(name)
    net.add_link("a", "b", 100.0)
    net.add_link("b", "c", 100.0)
    net.add_link("c", "d", 100.0)
    return net


class TestGridBasics:
    def test_all_channels_free_initially(self, chain):
        grid = WDMGrid(chain, n_wavelengths=8)
        assert grid.occupied("a", "b") == set()
        assert grid.common_free_channels(["a", "b"]) == list(range(8))

    def test_invalid_channel_count_rejected(self, chain):
        with pytest.raises(ConfigurationError):
            WDMGrid(chain, n_wavelengths=0)

    def test_unknown_link_rejected(self, chain):
        grid = WDMGrid(chain)
        with pytest.raises(Exception):
            grid.occupied("a", "d")

    def test_link_fill(self, chain):
        grid = WDMGrid(chain, n_wavelengths=4)
        grid.assign(["a", "b"])
        fill = len(grid.occupied("a", "b")) / grid.n_wavelengths
        assert fill == pytest.approx(0.25)


class TestFirstFit:
    def test_picks_lowest_index(self, chain):
        grid = WDMGrid(chain, n_wavelengths=4)
        assert grid.assign(["a", "b"]) == 0
        assert grid.assign(["a", "b"]) == 1

    def test_continuity_constraint(self, chain):
        grid = WDMGrid(chain, n_wavelengths=2)
        # Occupy channel 0 on b-c only; an a-d path must then use 1.
        grid.assign(["b", "c"])
        assert grid.assign(["a", "b", "c", "d"]) == 1

    def test_exhaustion_raises(self, chain):
        grid = WDMGrid(chain, n_wavelengths=2)
        grid.assign(["a", "b"])
        grid.assign(["a", "b"])
        with pytest.raises(WavelengthError):
            grid.assign(["a", "b"])

    def test_reuse_on_disjoint_links(self, chain):
        grid = WDMGrid(chain, n_wavelengths=1)
        assert grid.assign(["a", "b"]) == 0
        assert grid.assign(["c", "d"]) == 0  # spatially disjoint


class TestOtherPolicies:
    def test_random_requires_rng(self, chain):
        grid = WDMGrid(chain)
        with pytest.raises(ConfigurationError):
            grid.assign(["a", "b"], AssignmentPolicy.RANDOM)

    def test_random_deterministic_with_seed(self, chain):
        a = WDMGrid(chain, n_wavelengths=16)
        b = WDMGrid(chain, n_wavelengths=16)
        ra, rb = random.Random(3), random.Random(3)
        picks_a = [a.assign(["a", "b"], AssignmentPolicy.RANDOM, ra) for _ in range(5)]
        picks_b = [b.assign(["a", "b"], AssignmentPolicy.RANDOM, rb) for _ in range(5)]
        assert picks_a == picks_b

    def test_most_used_prefers_popular_channel(self, chain):
        grid = WDMGrid(chain, n_wavelengths=4)
        # Make channel 2 popular elsewhere.
        grid._light(["c", "d"], 2)
        grid._light(["b", "c"], 2)
        assert grid.assign(["a", "b"], AssignmentPolicy.MOST_USED) == 2


class TestRelease:
    def test_release_frees_channel(self, chain):
        grid = WDMGrid(chain, n_wavelengths=1)
        grid.assign(["a", "b", "c"])
        grid.release(["a", "b", "c"], 0)
        assert grid.assign(["a", "b", "c"]) == 0

    def test_release_unlit_channel_raises(self, chain):
        grid = WDMGrid(chain)
        with pytest.raises(WavelengthError):
            grid.release(["a", "b"], 0)

    def test_release_is_atomic_check_first(self, chain):
        grid = WDMGrid(chain, n_wavelengths=2)
        grid.assign(["a", "b"])  # channel 0 on a-b only
        with pytest.raises(WavelengthError):
            grid.release(["a", "b", "c"], 0)
        # a-b channel 0 must remain lit (the release was rejected whole).
        assert 0 in grid.occupied("a", "b")

    def test_double_light_same_channel_raises(self, chain):
        grid = WDMGrid(chain)
        grid._light(["a", "b"], 3)
        with pytest.raises(WavelengthError):
            grid._light(["a", "b"], 3)


class TestCommonFree:
    def test_intersection_across_hops(self, chain):
        grid = WDMGrid(chain, n_wavelengths=3)
        grid._light(["a", "b"], 0)
        grid._light(["b", "c"], 1)
        assert grid.common_free_channels(["a", "b", "c"]) == [2]

    def test_short_path_requires_two_nodes(self, chain):
        grid = WDMGrid(chain)
        with pytest.raises(ConfigurationError):
            grid.assign(["a"])

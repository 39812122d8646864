"""Tests for the optical underlay (IP reservations -> lightpaths)."""

import pytest

from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import ConfigurationError, TopologyError
from repro.network.topology import metro_mesh
from repro.optical.underlay import OpticalUnderlay, metro_underlay, optical_ring

from tests.conftest import make_mesh_task


@pytest.fixture
def fabric():
    return metro_mesh(n_sites=8, servers_per_site=2)


@pytest.fixture
def underlay(fabric):
    return metro_underlay(fabric)


class TestOpticalRing:
    def test_ring_shape(self):
        ring = optical_ring(6)
        assert ring.node_count == 6
        assert ring.link_count == 6
        assert ring.is_connected()

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            optical_ring(2)


class TestSiteMapping:
    def test_every_fabric_node_mapped(self, fabric, underlay):
        for node in fabric.node_names():
            assert underlay.site_of(node).startswith("ROADM-")

    def test_servers_map_to_their_site(self, underlay):
        assert underlay.site_of("SRV-3-1") == "ROADM-3"
        assert underlay.site_of("RT-3") == "ROADM-3"

    def test_unknown_node_rejected(self, underlay):
        with pytest.raises(TopologyError):
            underlay.site_of("ghost")


class TestMirroring:
    def test_schedule_lights_lightpaths(self, fabric, underlay):
        task = make_mesh_task(fabric, 5)
        schedule = FlexibleScheduler().schedule(task, fabric)
        demands = underlay.mirror_schedule(schedule)
        assert demands > 0
        assert underlay.lit_lightpaths > 0
        assert underlay.lit_wavelength_hops >= underlay.lit_lightpaths

    def test_intra_site_edges_stay_electrical(self, fabric, underlay):
        # A task whose global and locals share nothing still has
        # server->router hops; they must not become lightpaths.
        task = make_mesh_task(fabric, 3)
        schedule = FlexibleScheduler().schedule(task, fabric)
        underlay.mirror_schedule(schedule)
        for lp in underlay.grooming.lightpaths:
            assert lp.source != lp.destination

    def test_release_returns_spectrum(self, fabric, underlay):
        task = make_mesh_task(fabric, 5)
        schedule = FlexibleScheduler().schedule(task, fabric)
        underlay.mirror_schedule(schedule)
        freed = underlay.release_task(task.task_id)
        assert freed > 0
        assert underlay.lit_lightpaths == 0

    def test_double_mirror_rejected(self, fabric, underlay):
        task = make_mesh_task(fabric, 3)
        schedule = FlexibleScheduler().schedule(task, fabric)
        underlay.mirror_schedule(schedule)
        with pytest.raises(ConfigurationError):
            underlay.mirror_schedule(schedule)

    def test_release_unknown_task_is_zero(self, underlay):
        assert underlay.release_task("ghost") == 0.0

    def test_flexible_lights_less_spectrum_than_fixed(self, fabric):
        task = make_mesh_task(fabric, 8)
        results = {}
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            net = fabric.copy_topology()
            underlay = metro_underlay(net, n_wavelengths=160, channel_gbps=25.0)
            schedule = scheduler.schedule(task, net)
            underlay.mirror_schedule(schedule)
            results[scheduler.name] = underlay.lit_wavelength_hops
        assert results["flexible-mst"] <= results["fixed-spff"]

    def test_two_tasks_share_lightpath_capacity(self, fabric, underlay):
        a = make_mesh_task(fabric, 3, task_id="share-a", demand_gbps=5.0)
        b = make_mesh_task(fabric, 3, task_id="share-b", demand_gbps=5.0)
        sched = FlexibleScheduler()
        sa = sched.schedule(a, fabric)
        underlay.mirror_schedule(sa)
        solo = underlay.lit_lightpaths
        sb = sched.schedule(b, fabric)
        underlay.mirror_schedule(sb)
        # Same endpoints (same servers): the second task grooms onto the
        # first task's spare lightpath capacity, not double the count.
        assert underlay.lit_lightpaths < 2 * solo

"""Tests for servers, containers, first-fit placement, and the manager."""

import pytest

from repro.compute.container import Container, ResourceDemand
from repro.compute.manager import ComputingManager
from repro.compute.placement import first_fit
from repro.compute.server import Server
from repro.errors import ConfigurationError, PlacementError

from tests.conftest import placed_containers


def make_server(name="s1", node="n1", gpu=10_000.0):
    return Server(name, node, cpu_cores=16.0, gpu_gflops=gpu, memory_gb=64.0)


def make_container(cid="c1", gpu=1_000.0, cpu=2.0, mem=8.0):
    return Container(cid, ResourceDemand(cpu_cores=cpu, gpu_gflops=gpu, memory_gb=mem))


class TestResourceDemand:
    def test_negative_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceDemand(cpu_cores=-1.0)

    def test_scaled(self):
        demand = ResourceDemand(cpu_cores=2.0, gpu_gflops=100.0, memory_gb=4.0)
        doubled = demand.scaled(2.0)
        assert doubled.cpu_cores == 4.0
        assert doubled.gpu_gflops == 200.0

    def test_scaled_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceDemand().scaled(-1.0)


class TestServer:
    def test_place_updates_usage(self):
        server = make_server()
        server.place(make_container(gpu=4_000.0))
        assert server.used.gpu_gflops == pytest.approx(4_000.0)
        assert server.free.gpu_gflops == pytest.approx(6_000.0)

    def test_every_dimension_checked(self):
        server = make_server()
        # GPU fits, memory does not.
        huge_memory = make_container(gpu=100.0, mem=100.0)
        with pytest.raises(PlacementError):
            server.place(huge_memory)

    def test_duplicate_container_rejected(self):
        server = make_server()
        server.place(make_container("dup"))
        with pytest.raises(PlacementError):
            server.place(make_container("dup"))

    def test_evict_returns_container_and_frees(self):
        server = make_server()
        server.place(make_container("c1", gpu=4_000.0))
        evicted = server.evict("c1")
        assert evicted.container_id == "c1"
        assert evicted.server is None
        assert server.free.gpu_gflops == pytest.approx(10_000.0)

    def test_evict_unknown_rejected(self):
        with pytest.raises(PlacementError):
            make_server().evict("ghost")

    def test_placement_sets_server_field(self):
        server = make_server("host-a")
        container = make_container()
        server.place(container)
        assert container.server == "host-a"

    def test_load_fraction_uses_binding_dimension(self):
        server = make_server()
        server.place(make_container(gpu=100.0, cpu=8.0, mem=1.0))
        assert server.load_fraction() == pytest.approx(0.5)  # cpu 8/16

    def test_effective_gflops(self):
        server = make_server()
        server.place(make_container("c1", gpu=2_500.0))
        assert server.effective_gflops("c1") == pytest.approx(2_500.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Server("bad", "n", cpu_cores=0.0)


class TestPlacementPolicies:
    def setup_method(self):
        self.small = Server("small", "n1", gpu_gflops=5_000.0)
        self.large = Server("large", "n2", gpu_gflops=50_000.0)
        self.servers = [self.small, self.large]

    def test_first_fit_takes_first_feasible(self):
        chosen = first_fit(self.servers, ResourceDemand(gpu_gflops=1_000.0))
        assert chosen is self.small

    def test_first_fit_skips_infeasible(self):
        chosen = first_fit(self.servers, ResourceDemand(gpu_gflops=20_000.0))
        assert chosen is self.large

    def test_no_fit_raises(self):
        with pytest.raises(PlacementError):
            first_fit(self.servers, ResourceDemand(gpu_gflops=1e9))


class TestComputingManager:
    def test_register_and_lookup(self):
        manager = ComputingManager()
        server = make_server()
        manager.register(server)
        assert manager.server("s1") is server

    def test_duplicate_registration_rejected(self):
        manager = ComputingManager()
        manager.register(make_server())
        with pytest.raises(ConfigurationError):
            manager.register(make_server())

    def test_deploy_uses_first_fit(self):
        manager = ComputingManager()
        manager.register(make_server("a", "n1"))
        manager.register(make_server("b", "n2"))
        chosen = manager.deploy(make_container())
        assert chosen.name == "a"

    def test_deploy_restricted_to_node(self):
        manager = ComputingManager()
        manager.register(make_server("a", "n1"))
        manager.register(make_server("b", "n2"))
        chosen = manager.deploy(make_container(), node="n2")
        assert chosen.name == "b"

    def test_servers_at_keeps_registration_order(self):
        manager = ComputingManager()
        for name, node in [("z", "n1"), ("m", "n2"), ("a", "n1"), ("k", "n1")]:
            manager.register(make_server(name, node, gpu=1_500.0))
        # First fit at a node follows registration order, not names.
        placed = [
            manager.deploy(make_container(f"c{i}"), node="n1").name
            for i in range(3)
        ]
        assert placed == ["z", "a", "k"]

    def test_deploy_at_empty_node_rejected(self):
        manager = ComputingManager()
        manager.register(make_server("a", "n1"))
        with pytest.raises(PlacementError):
            manager.deploy(make_container(), node="nowhere")

    def test_deploy_candidates_order(self):
        manager = ComputingManager()
        manager.register(make_server("a", "n1"))
        manager.register(make_server("b", "n2"))
        chosen = manager.deploy(make_container(), candidates=["b", "a"])
        assert chosen.name == "b"

    def test_node_and_candidates_exclusive(self):
        manager = ComputingManager()
        manager.register(make_server())
        with pytest.raises(ConfigurationError):
            manager.deploy(make_container(), node="n1", candidates=["s1"])

    def test_destroy_frees_capacity(self):
        manager = ComputingManager()
        manager.register(make_server())
        manager.deploy(make_container("c1", gpu=9_000.0))
        manager.destroy("c1")
        manager.deploy(make_container("c2", gpu=9_000.0))  # fits again

    def test_destroy_unknown_rejected(self):
        with pytest.raises(PlacementError):
            ComputingManager().destroy("ghost")

    def test_host_of(self):
        manager = ComputingManager()
        manager.register(make_server())
        manager.deploy(make_container("c1"))
        assert manager.host_of("c1").name == "s1"

    def test_nodes_with_capacity(self):
        manager = ComputingManager()
        manager.register(make_server("a", "n1", gpu=1_000.0))
        manager.register(make_server("b", "n2", gpu=50_000.0))
        demand = ResourceDemand(gpu_gflops=10_000.0)
        nodes = [server.node for server in manager.servers if server.fits(demand)]
        assert nodes == ["n2"]

    def test_container_gflops(self):
        manager = ComputingManager()
        manager.register(make_server())
        manager.deploy(make_container("c1", gpu=3_000.0))
        assert manager.container_gflops("c1") == pytest.approx(3_000.0)

    def test_total_containers(self):
        manager = ComputingManager()
        manager.register(make_server())
        manager.deploy(make_container("c1"))
        manager.deploy(make_container("c2"))
        assert placed_containers(manager) == 2

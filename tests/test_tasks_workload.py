"""Tests for workload generation."""

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import metro_mesh
from repro.sim.rng import RandomStreams
from repro.tasks.workload import WorkloadConfig, generate_workload


@pytest.fixture
def net():
    return metro_mesh(n_sites=8, servers_per_site=2)


class TestWorkloadConfig:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_invalid_task_count(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(n_tasks=0)

    def test_invalid_locals_range(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(n_locals=(5, 2))

    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(model_names=("not-a-model",))

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(model_names=())


class TestGeneration:
    def test_count_and_ids(self, net):
        workload = generate_workload(net, WorkloadConfig(n_tasks=10))
        assert len(workload) == 10
        ids = [task.task_id for task in workload]
        assert len(set(ids)) == 10

    def test_reproducible_with_same_seed(self, net):
        a = generate_workload(net, WorkloadConfig(n_tasks=10), RandomStreams(5))
        b = generate_workload(net, WorkloadConfig(n_tasks=10), RandomStreams(5))
        for ta, tb in zip(a, b):
            assert ta.global_node == tb.global_node
            assert ta.local_nodes == tb.local_nodes
            assert ta.model.name == tb.model.name

    def test_different_seeds_differ(self, net):
        a = generate_workload(net, WorkloadConfig(n_tasks=10), RandomStreams(1))
        b = generate_workload(net, WorkloadConfig(n_tasks=10), RandomStreams(2))
        assert any(
            ta.local_nodes != tb.local_nodes for ta, tb in zip(a, b)
        )

    def test_placement_on_server_nodes_only(self, net):
        workload = generate_workload(net, WorkloadConfig(n_tasks=10, n_locals=4))
        servers = set(net.servers())
        for task in workload:
            assert task.global_node in servers
            assert set(task.local_nodes) <= servers

    def test_global_never_among_locals(self, net):
        workload = generate_workload(net, WorkloadConfig(n_tasks=20, n_locals=6))
        for task in workload:
            assert task.global_node not in task.local_nodes

    def test_locals_range_sampled(self, net):
        workload = generate_workload(
            net, WorkloadConfig(n_tasks=30, n_locals=(2, 5))
        )
        counts = {task.n_locals for task in workload}
        assert counts <= {2, 3, 4, 5}
        assert len(counts) > 1

    def test_models_drawn_from_subset(self, net):
        workload = generate_workload(
            net, WorkloadConfig(n_tasks=20, model_names=("lenet5",))
        )
        assert {task.model.name for task in workload} == {"lenet5"}

    def test_arrivals_monotone_with_interarrival(self, net):
        workload = generate_workload(
            net, WorkloadConfig(n_tasks=10, mean_interarrival_ms=100.0)
        )
        arrivals = [task.arrival_ms for task in workload]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0

    def test_zero_interarrival_means_batch(self, net):
        workload = generate_workload(net, WorkloadConfig(n_tasks=5))
        assert all(task.arrival_ms == 0.0 for task in workload)

    def test_utilities_attached_when_asked(self, net):
        workload = generate_workload(
            net, WorkloadConfig(n_tasks=5, with_utility=True)
        )
        for task in workload:
            assert task.local_utility is not None
            assert len(task.local_utility) == task.n_locals

    def test_topology_too_small_rejected(self):
        tiny = metro_mesh(n_sites=3, servers_per_site=1)
        with pytest.raises(ConfigurationError):
            generate_workload(tiny, WorkloadConfig(n_tasks=1, n_locals=10))

    def test_prefix_used_in_ids(self, net):
        workload = generate_workload(
            net, WorkloadConfig(n_tasks=2), prefix="myexp"
        )
        assert all(task.task_id.startswith("myexp-") for task in workload)

    def test_total_rounds(self, net):
        workload = generate_workload(net, WorkloadConfig(n_tasks=4, rounds=7))
        assert workload.total_rounds == 28

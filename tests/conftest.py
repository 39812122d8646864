"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.network.graph import Network

# Hypothesis profiles: "ci" is derandomized (fixed example sequence) so
# property failures reproduce across runs and shards; "dev" keeps the
# default randomized search.  Select with HYPOTHESIS_PROFILE=ci (the CI
# workflow does) — the default remains "dev".  Guarded so a bare
# `pip install -e .` without the test extra still collects the
# non-property suites (the property modules skip themselves).
try:
    from hypothesis import settings as hypothesis_settings
except ImportError:  # pragma: no cover - exercised only without the extra
    pass
else:
    hypothesis_settings.register_profile("ci", derandomize=True, max_examples=25)
    hypothesis_settings.register_profile("dev")
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.network.node import NodeKind
from repro.network.topology import metro_mesh, metro_ring, toy_triangle
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model


@pytest.fixture
def square_net() -> Network:
    """Four routers in a square with one diagonal; distinct latencies.

    Layout (distances in km)::

        A --10-- B
        |        |
        40       10
        |        |
        D --10-- C
         \\--5 (A-C diagonal)
    """
    net = Network("square")
    for name in "ABCD":
        net.add_node(name, NodeKind.ROUTER)
    net.add_link("A", "B", 100.0, distance_km=10.0)
    net.add_link("B", "C", 100.0, distance_km=10.0)
    net.add_link("C", "D", 100.0, distance_km=10.0)
    net.add_link("A", "D", 100.0, distance_km=40.0)
    net.add_link("A", "C", 100.0, distance_km=5.0)
    return net


@pytest.fixture
def line_net() -> Network:
    """Three servers on a line: S1 - R1 - R2 - S2, plus S3 at R2."""
    net = Network("line")
    net.add_node("R1", NodeKind.ROUTER)
    net.add_node("R2", NodeKind.ROUTER)
    net.add_node("S1", NodeKind.SERVER)
    net.add_node("S2", NodeKind.SERVER)
    net.add_node("S3", NodeKind.SERVER)
    net.add_link("S1", "R1", 100.0, distance_km=1.0)
    net.add_link("R1", "R2", 100.0, distance_km=50.0)
    net.add_link("S2", "R2", 100.0, distance_km=1.0)
    net.add_link("S3", "R2", 100.0, distance_km=1.0)
    return net


@pytest.fixture
def triangle_net() -> Network:
    """The Fig. 1 toy topology."""
    return toy_triangle()


@pytest.fixture
def mesh_net() -> Network:
    """A small metro mesh with two servers per site."""
    return metro_mesh(n_sites=8, servers_per_site=2)


@pytest.fixture
def ring_net() -> Network:
    """A small metro ring."""
    return metro_ring(n_sites=5)


@pytest.fixture
def small_task() -> AITask:
    """A three-local task for the toy triangle topology."""
    return AITask(
        task_id="t-small",
        model=get_model("resnet18"),
        global_node="S-G",
        local_nodes=("S-1", "S-2", "S-3"),
        rounds=3,
        demand_gbps=10.0,
    )


def make_mesh_task(
    network: Network,
    n_locals: int = 4,
    *,
    task_id: str = "t-mesh",
    model: str = "resnet18",
    demand_gbps: float = 10.0,
    rounds: int = 3,
) -> AITask:
    """Build a task over the first servers of any topology."""
    servers = network.servers()
    assert len(servers) >= n_locals + 1, "topology too small for task"
    return AITask(
        task_id=task_id,
        model=get_model(model),
        global_node=servers[0],
        local_nodes=tuple(servers[1 : n_locals + 1]),
        rounds=rounds,
        demand_gbps=demand_gbps,
    )

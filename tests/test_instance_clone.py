"""Scenario-instance clones and the spare that ``instantiate`` hands out.

``ScenarioSpec.instantiate`` builds an instance, keeps one
``ScenarioInstance.clone()`` as the calling thread's spare, and gives
that spare to the next call with the same spec, merged params and seed
(the sweep engine's second scheduler).  These tests pin what makes the
spare safe to hand out:

* **equality** — for every built-in scenario at seeds 0-2, and for a
  hub-sized scale-free fabric, the spare equals a fresh build field by
  field: ledger slots and epoch, owner buckets and the owner registry
  in insertion order, node and link failure state, adjacency,
  ``topology_version``, every stream's state, params, workload, fault
  timeline and the CSR snapshot's structure and overlay;
* **independence** — serving the first instance (drawing more
  background flows, admitting and completing tasks, failing and
  restoring a link, draining a span, failing a node) leaves the spare
  equal to a fresh build, and serving the spare leaves the first
  instance as it was;
* **no shared mutable object** — the two instances share no ledger
  array, bucket dict, ``Link``, ``Node``, adjacency list, ``Random``
  or snapshot overlay, and neither gets the other's path cache;
* **interleavings** — a network cloned part-way through a random
  mutation sequence ends where the original does when both play the
  rest, and mutating the original afterwards leaves the clone as a
  replay of its own operations says.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.core.flexible import FlexibleScheduler
from repro.errors import CapacityError
from repro.network import csr
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import peek_cache
from repro.orchestrator.campaign import orchestrator_for
from repro.orchestrator.database import TaskStatus
from repro.scenarios import get_scenario, list_scenarios
from repro.scenarios import spec as spec_module
from repro.scenarios.spec import ScenarioSpec
from repro.traffic.generator import TrafficGenerator

BUILTINS = [spec.name for spec in list_scenarios()]

#: The end-to-end benchmark's hub fabric: 2,000 nodes, 50 background flows.
HUB = dataclasses.replace(
    get_scenario("scale-free-hubs"),
    name="clone-hub",
    defaults={
        **get_scenario("scale-free-hubs").defaults,
        "n_routers": 1000,
        "m_links": 2,
        "servers_per_site": 1,
        "topology_seed": 1,
        "n_tasks": 100,
        "n_locals": 4,
        "demand_gbps": 4.0,
        "rounds": 3,
        "background_flows": 50,
    },
)


@pytest.fixture(autouse=True)
def no_spare():
    """Start and end every test with no spare left by another one."""
    spec_module._SPARE.instance = None
    yield
    spec_module._SPARE.instance = None


@pytest.fixture
def builds(monkeypatch):
    """Counts real builds (``ScenarioSpec._build`` calls)."""
    calls = []
    build = ScenarioSpec._build

    def counted(self, merged, seed):
        calls.append((self.name, seed))
        return build(self, merged, seed)

    monkeypatch.setattr(ScenarioSpec, "_build", counted)
    return calls


def fresh(spec, seed, params=None):
    """A build that never touches the spare."""
    return spec._build(spec.merge_params(params), seed)


def snapshot_state(network):
    """The snapshot as routing would read it next (refreshed), or None."""
    if network._csr_snapshot is None:
        return None
    snapshot = csr.get_snapshot(network)
    assert snapshot.network is network
    return (
        snapshot.topology_version,
        snapshot.names,
        snapshot.index,
        snapshot.indptr,
        snapshot.indices,
        snapshot.heads,
        snapshot.edge_pos,
        snapshot.slot_of_pos.tolist(),
        snapshot.latency.tolist(),
        snapshot.used.tolist(),
        snapshot.capacity.tolist(),
        snapshot.failed.tolist(),
    )


def network_state(network):
    """Every piece of a network's state, order included."""
    ledger = network.ledger
    return {
        "name": network.name,
        "topology_version": network.topology_version,
        "epoch": ledger.epoch,
        "used": list(ledger.used),
        "capacity": list(ledger.capacity),
        "failed": list(ledger.failed),
        "registry": [
            (owner, [link.endpoints for link in ledger.links_of(owner)])
            for owner in ledger._held
        ],
        "nodes": [
            (node.name, node.kind, node.aggregation_capable, node.attrs, node.failed)
            for node in network.nodes()
        ],
        "adjacency": [
            (name, network.neighbors(name)) for name in network.node_names()
        ],
        "links": [
            (
                link.endpoints,
                link._slot,
                link.distance_km,
                link.latency_ms,
                link._forced_failed,
                link._endpoints_down,
                link.failed,
                [list(bucket.items()) for bucket in link._buckets],
            )
            for link in network.links()
        ],
        "snapshot": snapshot_state(network),
    }


def instance_state(instance):
    """Everything a sweep row can read off an instance."""
    streams = instance.streams
    return {
        "spec": instance.spec.name,
        "params": [(key, type(value), value) for key, value in instance.params.items()],
        "seed": instance.seed,
        "failed_links": instance.failed_links,
        "workload": instance.workload,
        "fault_timeline": instance.fault_timeline,
        "metadata": instance.metadata,
        "master_seed": streams.master_seed,
        "streams": [
            (name, stream.getstate()) for name, stream in streams._streams.items()
        ],
        "network": network_state(instance.network),
    }


def mutable_parts(instance):
    """Every mutable object an instance reaches, besides the frozen ones."""
    network = instance.network
    ledger = network.ledger
    parts = [
        instance.params,
        instance.metadata,
        instance.streams,
        instance.streams._streams,
        network,
        network._nodes,
        network._links,
        network._adjacency,
        ledger,
        ledger.used,
        ledger.capacity,
        ledger.failed,
        ledger._held,
    ]
    parts += instance.streams._streams.values()
    parts += network._adjacency.values()
    parts += ledger._held.values()
    for node in network.nodes():
        parts += [node, node.attrs]
    for link in network.links():
        parts += [link, *link._buckets]
    snapshot = network._csr_snapshot
    if snapshot is not None:
        parts += [snapshot, snapshot.used, snapshot.capacity, snapshot.failed]
    cache = peek_cache(network)
    if cache is not None:
        parts.append(cache)
    return parts


def serve(instance):
    """Admit and complete tasks, fail and restore a link, drain, fail a node.

    Two more background flows are drawn from the instance's streams
    first, as live traffic would.
    """
    network = instance.network
    TrafficGenerator(network, instance.streams).inject_static(2)
    orchestrator = orchestrator_for(instance, FlexibleScheduler())
    tasks = list(instance.workload)[:4]
    for task in tasks:
        orchestrator.admit(task)
    running = [
        task.task_id
        for task in tasks
        if orchestrator.database.record(task.task_id).status is TaskStatus.RUNNING
    ]
    if running:
        orchestrator.complete(running[0])
    spans = network.inter_switch_links()
    if spans:
        orchestrator.handle_link_failure(*spans[0])
        orchestrator.handle_link_restore(*spans[0])
        orchestrator.handle_link_drain(*spans[-1])
    routers = [node.name for node in network.nodes() if not node.can_host_models]
    orchestrator.handle_node_failure(routers[0])


class TestSpareEqualsFreshBuild:
    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_builtin(self, name, seed, builds):
        spec = get_scenario(name)
        first = spec.instantiate(seed=seed)
        spare = spec.instantiate(seed=seed)
        assert len(builds) == 1, "the second call must get the spare"
        expected = instance_state(fresh(spec, seed))
        assert instance_state(spare) == expected
        assert instance_state(first) == expected

    def test_hub_fabric(self, builds):
        first = HUB.instantiate(seed=42)
        spare = HUB.instantiate(seed=42)
        assert len(builds) == 1
        network = spare.network
        assert network.node_count == 2000
        assert any(link.owners() for link in network.links())
        assert network._csr_snapshot is not None
        expected = instance_state(fresh(HUB, 42))
        assert instance_state(spare) == expected
        assert instance_state(first) == expected

    def test_structure_shared_overlay_own(self, builds):
        first = HUB.instantiate(seed=3)
        spare = HUB.instantiate(seed=3)
        ours, theirs = first.network._csr_snapshot, spare.network._csr_snapshot
        assert theirs is not ours
        assert theirs.indptr is ours.indptr and theirs.core() is ours.core()
        assert spare.workload is first.workload
        for name in ("used", "capacity", "failed"):
            assert not np.shares_memory(getattr(ours, name), getattr(theirs, name))

    def test_spare_is_handed_out_once(self, builds):
        spec = get_scenario("toy-triangle")
        instances = [spec.instantiate(seed=0) for _ in range(4)]
        assert len(builds) == 2
        assert len({id(instance) for instance in instances}) == 4

    @pytest.mark.parametrize(
        "params, seed",
        [({"demand_gbps": 6.0}, 0), ({}, 1)],
    )
    def test_other_key_builds(self, params, seed, builds):
        spec = get_scenario("toy-triangle")
        spec.instantiate(seed=0)
        other = spec.instantiate(params, seed=seed)
        assert len(builds) == 2
        assert instance_state(other) == instance_state(fresh(spec, seed, params))

    def test_value_of_another_type_builds(self, builds):
        spec = get_scenario("metro-mesh-uniform")
        spec.instantiate({"demand_gbps": 10}, seed=0)
        spec.instantiate({"demand_gbps": 10.0}, seed=0)
        assert len(builds) == 2

    def test_spare_is_per_thread(self, builds):
        spec = get_scenario("toy-triangle")
        spec.instantiate(seed=0)
        other = []
        thread = threading.Thread(target=lambda: other.append(spec.instantiate(seed=0)))
        thread.start()
        thread.join()
        assert len(builds) == 2, "another thread must not get this thread's spare"
        spec.instantiate(seed=0)
        assert len(builds) == 2


class TestIndependence:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_serving_the_first_leaves_the_spare(self, name, builds):
        spec = get_scenario(name)
        first = spec.instantiate(seed=0)
        untouched = instance_state(first)
        serve(first)
        assert instance_state(first) != untouched
        spare = spec.instantiate(seed=0)
        assert len(builds) == 1
        assert peek_cache(spare.network) is None
        assert instance_state(spare) == instance_state(fresh(spec, 0))

    @pytest.mark.parametrize("name", ["metro-mesh-uniform", "trace-srlg-campaign"])
    def test_serving_the_spare_leaves_the_first(self, name):
        spec = get_scenario(name)
        first = spec.instantiate(seed=1)
        serve(first)
        served = instance_state(first)
        serve(spec.instantiate(seed=1))
        assert instance_state(first) == served

    def test_hub_fabric(self, builds):
        first = HUB.instantiate(seed=5)
        serve(first)
        spare = HUB.instantiate(seed=5)
        assert len(builds) == 1
        assert instance_state(spare) == instance_state(fresh(HUB, 5))


class TestNoSharedMutableObject:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin(self, name, builds):
        spec = get_scenario(name)
        first = spec.instantiate(seed=0)
        serve(first)
        spare = spec.instantiate(seed=0)
        serve(spare)
        assert len(builds) == 1
        ours = {id(part) for part in mutable_parts(first)}
        theirs = {id(part) for part in mutable_parts(spare)}
        assert not ours & theirs

    def test_hub_fabric(self):
        first = HUB.instantiate(seed=0)
        spare = HUB.instantiate(seed=0)
        assert not {id(p) for p in mutable_parts(first)} & {
            id(p) for p in mutable_parts(spare)
        }


# ---------------------------------------------------------------------------
# Interleavings: clone part-way through a random mutation sequence
# ---------------------------------------------------------------------------

NODES = ("a", "b", "c", "d", "e")
LINKS = (
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c"), ("b", "e")
)
OWNERS = ("t0", "t1", "t2", "bg")

directed = st.tuples(st.sampled_from(LINKS), st.booleans()).map(
    lambda pick: pick[0] if pick[1] else pick[0][::-1]
)
operations = st.one_of(
    st.tuples(
        st.just("reserve"),
        directed,
        st.sampled_from((0.1, 0.2, 0.3, 0.7, 1.1, 2.9, 3.3)),
        st.sampled_from(OWNERS),
    ),
    st.tuples(st.just("release"), directed, st.sampled_from(OWNERS)),
    st.tuples(st.just("release_owner"), st.sampled_from(OWNERS)),
    st.tuples(st.just("fail_link"), st.sampled_from(LINKS)),
    st.tuples(st.just("restore_link"), st.sampled_from(LINKS)),
    st.tuples(st.just("fail_node"), st.sampled_from(NODES)),
    st.tuples(st.just("restore_node"), st.sampled_from(NODES)),
    st.tuples(st.just("capacity"), st.sampled_from(LINKS), st.floats(1.0, 20.0)),
    st.tuples(st.just("snapshot")),
)


def build() -> Network:
    net = Network("interleave")
    for name in NODES:
        net.add_node(name, NodeKind.ROUTER, site=name.upper())
    for u, v in LINKS:
        net.add_link(u, v, 10.0, distance_km=10.0)
    return net


def apply(net, op):
    """Play one mutation; returns what the caller would observe."""
    kind = op[0]
    if kind == "reserve":
        _, (src, dst), gbps, owner = op
        try:
            net.reserve_edge(src, dst, gbps, owner)
        except CapacityError:
            return "blocked"
        return "reserved"
    if kind == "release":
        _, (src, dst), owner = op
        return net.link(src, dst).release(src, dst, owner)
    if kind == "release_owner":
        return net.release_owner(op[1])
    if kind == "fail_link":
        return net.fail_link(*op[1]).failed
    if kind == "restore_link":
        return net.restore_link(*op[1]).failed
    if kind == "fail_node":
        return net.fail_node(op[1]).failed
    if kind == "restore_node":
        return net.restore_node(op[1]).failed
    if kind == "capacity":
        _, (u, v), value = op
        net.link(u, v).capacity_gbps = value
        return value
    return csr.get_snapshot(net).residual_list()


@given(
    ops=st.lists(operations, max_size=30),
    split=st.integers(0, 30),
    extra=st.lists(operations, min_size=1, max_size=10),
)
def test_clone_tracks_original_and_stays_independent(ops, split, extra):
    original, replay = build(), build()
    for op in ops[:split]:
        apply(original, op)
        apply(replay, op)
    twin = original.clone()
    assert network_state(twin) == network_state(original)
    for op in ops[split:]:
        assert apply(twin, op) == apply(original, op)
        apply(replay, op)
    assert network_state(twin) == network_state(original)
    for op in extra:
        apply(original, op)
    assert network_state(twin) == network_state(replay)

"""Property-based tests (hypothesis) for per-admission control-plane state.

Each property pins a cheap production form against the form it
replaced, kept here as the reference:

* ``fixed.reserve_flows`` reserves each directed edge once, for the sum
  of the task's flow rates there.  A per-hop reference (one
  ``reserve_edge`` per flow and hop, broadcast locals then upload
  locals) on a twin network must leave the same owner buckets, value
  for value and in the same order, bitwise-equal ledger slots, and the
  same ``links_of`` order.  Flow paths are random walks on a small
  mesh, so they share edges within and across procedures.
* ``SdnController`` keeps schedules and derives rules on read;
  ``rules_of``, ``rules_on``, ``total_rules``, ``remove`` and the
  ``install`` return value must match a controller that builds every
  :class:`FlowRule` at install time, over random install/remove runs.
* ``Network.owners_on_link`` (from the owner buckets) must equal the
  sorted owner set read through ``Link.reservations``.
* ``csr.shortest_paths_csr`` solves once per distinct source; every
  answer must equal a one-pair batch (the per-pair early-exit solve).
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.base import MIN_RATE_GBPS, TaskSchedule
from repro.core.fixed import reserve_flows
from repro.errors import CapacityError, NoPathError, OrchestrationError, SchedulingError
from repro.network import csr
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import LatencyWeightSpec
from repro.orchestrator.sdn import FlowRule, SdnController
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

from tests.test_csr_point import latency_graphs

NODES = ("a", "b", "c", "d", "e", "f")
LINKS = (
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"),
    ("a", "c"), ("b", "e"), ("c", "f"),
)
BACKGROUND = ("bg0", "bg1", "bg2")
CAPACITY = 10.0

rates = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 0.7, 1.1, 2.9)),
    st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False),
)
directed = st.tuples(st.sampled_from(LINKS), st.booleans()).map(
    lambda pick: pick[0] if pick[1] else pick[0][::-1]
)
walks = st.lists(st.integers(0, 3), min_size=1, max_size=5)


def build() -> Network:
    net = Network("control-plane")
    for name in NODES:
        net.add_node(name, NodeKind.ROUTER)
    for u, v in LINKS:
        net.add_link(u, v, CAPACITY, distance_km=10.0)
    return net


def walk(net, start, steps):
    path = [start]
    for step in steps:
        neighbors = net.neighbors(path[-1])
        path.append(neighbors[step % len(neighbors)])
    return tuple(path)


def state(net, owner):
    """Buckets in insertion order, raw ledger slots, and ``links_of``."""
    buckets = [
        (link.u, link.v, list(bucket.items()))
        for link in net.links()
        for bucket in link._buckets
    ]
    ledger = net.ledger
    held = [(link.u, link.v) for link in ledger.links_of(owner)]
    return buckets, ledger.used.tobytes(), held


@st.composite
def flow_cases(draw):
    """Background load, one task's flow paths, and maybe a failed link."""
    background = draw(
        st.lists(
            st.tuples(directed, rates, st.sampled_from(BACKGROUND)), max_size=12
        )
    )
    n_locals = draw(st.integers(1, 4))
    broadcast = [draw(walks) for _ in range(n_locals)]
    upload = [draw(walks) for _ in range(n_locals)]
    starts = [draw(st.sampled_from(NODES)) for _ in range(n_locals)]
    demand = draw(st.sampled_from((0.1, 0.3, 0.7, 1.1, 2.9, 7.0)))
    failed = draw(st.one_of(st.none(), st.sampled_from(LINKS)))
    return background, broadcast, upload, starts, demand, failed


def _prepare(case):
    background, broadcast, upload, starts, demand, failed = case
    net = build()
    for (src, dst), gbps, owner in background:
        try:
            net.reserve_edge(src, dst, gbps, owner)
        except CapacityError:
            pass
    if failed is not None:
        net.fail_link(*failed)
    locals_ = tuple(f"L{i}" for i in range(len(starts)))
    task = AITask(
        task_id="task",
        model=get_model("resnet18"),
        global_node="G",
        local_nodes=locals_,
        demand_gbps=demand,
    )
    broadcast_paths = {
        local: walk(net, "a", steps) for local, steps in zip(locals_, broadcast)
    }
    upload_paths = {
        local: walk(net, start, steps)
        for local, start, steps in zip(locals_, starts, upload)
    }
    return net, task, broadcast_paths, upload_paths


def _reserve_per_hop(net, schedule, broadcast_paths, upload_paths):
    """The reference: one reserve per flow and hop, in flow order."""
    owner = schedule.task.task_id
    try:
        for paths, flow_rates in (
            (broadcast_paths, schedule.broadcast_flow_rates),
            (upload_paths, schedule.upload_flow_rates),
        ):
            for local, path in paths.items():
                for edge in zip(path, path[1:]):
                    net.reserve_edge(*edge, flow_rates[local], owner)
    except Exception:
        net.release_owner(owner)
        raise


class TestPerEdgeReservation:
    @settings(max_examples=150, deadline=None)
    @given(flow_cases())
    def test_matches_per_hop_reference(self, case):
        net, task, broadcast_paths, upload_paths = _prepare(case)
        twin, *_ = _prepare(case)
        before = state(net, task.task_id)
        try:
            schedule = reserve_flows(
                "fixed-spff", task, net, MIN_RATE_GBPS,
                broadcast_paths, upload_paths, "",
            )
        except SchedulingError:
            assert state(net, task.task_id) == before
            return
        except CapacityError:
            # A failed link on a path: everything is rolled back.
            assert case[-1] is not None
            assert state(net, task.task_id) == before
            return
        _reserve_per_hop(twin, schedule, broadcast_paths, upload_paths)
        assert state(net, task.task_id) == state(twin, task.task_id)
        for edge_rates, paths, flow_rates in (
            (
                schedule.broadcast_edge_rates,
                broadcast_paths,
                schedule.broadcast_flow_rates,
            ),
            (
                schedule.upload_edge_rates,
                upload_paths,
                schedule.upload_flow_rates,
            ),
        ):
            expected = {}
            for local, path in paths.items():
                for edge in zip(path, path[1:]):
                    expected[edge] = expected.get(edge, 0.0) + flow_rates[local]
            assert list(edge_rates.items()) == list(expected.items())


def _schedule(index, edges):
    """A schedule whose edge maps hold ``edges`` split across procedures."""
    task = AITask(
        task_id=f"t{index}",
        model=get_model("resnet18"),
        global_node="G",
        local_nodes=("L",),
    )
    broadcast = {edge: 1.0 for edge, upload in edges if not upload}
    upload = {edge: 1.0 for edge, upload in edges if upload}
    return TaskSchedule(
        task=task,
        scheduler="test",
        broadcast_edge_rates=broadcast,
        upload_edge_rates=upload,
    )


class EagerController:
    """The reference: every rule built at install, kept per task."""

    def __init__(self, rule_install_ms):
        self.rule_install_ms = rule_install_ms
        self.rules = {}
        self.reconfigurations = 0

    def install(self, schedule):
        task_id = schedule.task.task_id
        if task_id in self.rules:
            raise OrchestrationError(task_id)
        self.rules[task_id] = [
            FlowRule(device=src, task_id=task_id, procedure=procedure, next_hop=dst)
            for procedure, rates in (
                ("broadcast", schedule.broadcast_edge_rates),
                ("upload", schedule.upload_edge_rates),
            )
            for src, dst in rates
        ]
        self.reconfigurations += 1
        return len(self.rules[task_id]) * self.rule_install_ms

    def remove(self, task_id):
        return len(self.rules.pop(task_id, []))

    def rules_on(self, device):
        return [
            rule for rules in self.rules.values() for rule in rules
            if rule.device == device
        ]


schedule_edges = st.lists(st.tuples(directed, st.booleans()), max_size=8)
controller_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.integers(0, 4)),
        st.tuples(st.just("remove"), st.integers(0, 5)),
    ),
    max_size=20,
)


class TestSdnRulesOnRead:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(schedule_edges, min_size=5, max_size=5),
        controller_ops,
        st.sampled_from((0.0, 0.1, 0.25)),
    )
    def test_matches_eager_controller(self, edge_sets, ops, install_ms):
        schedules = [_schedule(i, edges) for i, edges in enumerate(edge_sets)]
        sdn = SdnController(rule_install_ms=install_ms)
        eager = EagerController(install_ms)
        for kind, index in ops:
            if kind == "install":
                schedule = schedules[index]
                try:
                    expected = eager.install(schedule)
                except OrchestrationError:
                    with pytest.raises(OrchestrationError):
                        sdn.install(schedule)
                else:
                    assert sdn.install(schedule) == expected
            else:
                task_id = f"t{index}"
                assert sdn.remove(task_id) == eager.remove(task_id)
            assert sdn.total_rules == sum(map(len, eager.rules.values()))
            assert sdn.reconfigurations == eager.reconfigurations
            for index in range(6):
                task_id = f"t{index}"
                assert sdn.rules_of(task_id) == eager.rules.get(task_id, [])
            for device in NODES:
                assert sdn.rules_on(device) == eager.rules_on(device)


link_ops = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), directed, rates, st.sampled_from(("x", "y", "z"))),
        st.tuples(st.just("release"), directed, st.sampled_from(("x", "y", "z"))),
        st.tuples(st.just("release_owner"), st.sampled_from(("x", "y", "z"))),
    ),
    max_size=25,
)


class TestOwnersFromBuckets:
    @settings(max_examples=100, deadline=None)
    @given(link_ops)
    def test_matches_reservation_reference(self, ops):
        net = build()
        for op in ops:
            if op[0] == "reserve":
                _, (src, dst), gbps, owner = op
                try:
                    net.reserve_edge(src, dst, gbps, owner)
                except CapacityError:
                    pass
            elif op[0] == "release":
                _, (src, dst), owner = op
                net.link(src, dst).release(src, dst, owner)
            else:
                net.release_owner(op[1])
            for link in net.links():
                expected = sorted(
                    {
                        r.owner
                        for src, dst in ((link.u, link.v), (link.v, link.u))
                        for r in link.reservations(src, dst)
                    }
                )
                assert net.owners_on_link(link.u, link.v) == expected
                assert net.owners_on_link(link.v, link.u) == expected
                assert sorted(link.owners()) == expected


class TestGroupedPointQueries:
    @settings(max_examples=120, deadline=None)
    @given(latency_graphs(), st.data())
    def test_grouped_equals_per_pair_solves(self, case, data):
        net, queries = case
        names = net.node_names()
        # Few sources, many destinations each: most pairs share a solve.
        sources = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
        queries = queries + data.draw(
            st.lists(
                st.tuples(st.sampled_from(sources), st.sampled_from(names)),
                max_size=12,
            )
        )
        spec = LatencyWeightSpec(net)
        grouped = csr.shortest_paths_csr(net, queries, spec)
        assert len(grouped) == len(queries)
        for pair, answer in zip(queries, grouped):
            (expected,) = csr.shortest_paths_csr(net, [pair], spec)
            if isinstance(expected, NoPathError):
                assert isinstance(answer, NoPathError)
                assert str(answer) == str(expected)
                continue
            assert answer.nodes == expected.nodes
            assert answer.weight.hex() == expected.weight.hex()

"""Property: the one-pass-per-tree evaluator equals the per-local one.

:class:`~repro.core.evaluation.ScheduleEvaluator` reads each tree edge's
latency, each node's merge time and relay flag once per tree, and prices
each distinct ``(size, rate)`` stage of a path once.  Every float is
still summed in the per-local order, so ``report()`` must be ``==`` —
not approximately equal — to :class:`tests.oracle.ReferenceEvaluator`,
which walks every local's path from scratch.

The cases stress what the shared terms depend on: ROADMs that relay
without aggregating (multi-payload upload edges), zero-latency edges,
per-edge rates drawn from a small set (repeated and distinct stages on
one path), locals that are relays for other locals, both schedule
shapes (path-based fixed, tree-based flexible), the real schedulers on
random meshes, and both the TCP and RDMA transports.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.base import TaskSchedule
from repro.core.evaluation import EvaluationConfig, ScheduleEvaluator
from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.errors import ReproError
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.paths import TreeResult
from repro.tasks.aitask import AITask
from repro.tasks.models import MLModelSpec
from repro.transport.protocols import RdmaTransport, TcpTransport
from tests.oracle import ReferenceEvaluator

_KINDS = st.sampled_from([NodeKind.SERVER, NodeKind.ROUTER, NodeKind.ROADM])
# Zero-latency edges, and values whose float sums depend on the order
# they are added in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
_LATENCIES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7]),
    st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
)
_RATES = st.sampled_from([2.5, 5.0, 10.0, 40.0])
_TRANSPORTS = st.sampled_from(
    [
        TcpTransport(),
        TcpTransport(loss_rate=0.01, window_mb=4.0),
        RdmaTransport(),
        RdmaTransport(loss_rate=1e-4, buffer_mb=2.0, go_back_n=False),
    ]
)


@st.composite
def configs(draw):
    return EvaluationConfig(
        transport=draw(_TRANSPORTS),
        relay_overhead_ms=draw(st.sampled_from([0.0, 0.05, 0.3])),
        control_overhead_ms=draw(st.sampled_from([0.0, 0.1])),
    )


def _model(draw):
    return MLModelSpec(
        "m",
        parameters=draw(st.sampled_from([1e5, 1.1e7, 2.5e7])),
        train_gflop_per_round=draw(st.sampled_from([1.0, 40.0])),
    )


@st.composite
def tree_schedules(draw):
    """A random tree network and a hand-built schedule of either shape."""
    n = draw(st.integers(2, 9))
    net = Network("eval-tree")
    names = [f"n{i}" for i in range(n)]
    net.add_node(names[0], NodeKind.SERVER)
    for name in names[1:]:
        net.add_node(name, draw(_KINDS))
    parent = {}
    for i in range(1, n):
        parent[names[i]] = names[draw(st.integers(0, i - 1))]
        net.add_link(
            names[i], parent[names[i]], 100.0, latency_ms=draw(_LATENCIES)
        )
    locals_ = tuple(
        draw(st.lists(st.sampled_from(names[1:]), min_size=1, unique=True))
    )
    task = AITask(
        task_id="t",
        model=_model(draw),
        global_node=names[0],
        local_nodes=locals_,
        demand_gbps=10.0,
    )
    full = TreeResult(root=names[0], parent=parent, weight=0.0)
    # Keep only the nodes some local routes through, as a scheduler's
    # tree would.
    spanned = {node for local in locals_ for node in full.path_to_root(local)}
    tree = TreeResult(
        root=names[0],
        parent={c: p for c, p in parent.items() if c in spanned},
        weight=0.0,
    )
    if draw(st.booleans()):
        return net, TaskSchedule(
            task=task,
            scheduler="flexible-mst",
            broadcast_tree=tree,
            upload_tree=tree,
            broadcast_edge_rates={
                (p, c): draw(_RATES) for c, p in tree.parent.items()
            },
            upload_edge_rates={
                (c, p): draw(_RATES) for c, p in tree.parent.items()
            },
        )
    routes = {local: tuple(tree.path_to_root(local)) for local in locals_}
    return net, TaskSchedule(
        task=task,
        scheduler="fixed-spff",
        broadcast_routes={
            local: tuple(reversed(route)) for local, route in routes.items()
        },
        upload_routes=routes,
        broadcast_flow_rates={local: draw(_RATES) for local in locals_},
        upload_flow_rates={local: draw(_RATES) for local in locals_},
    )


@st.composite
def mesh_tasks(draw):
    """A random connected mesh with mixed node kinds and a task on it."""
    n = draw(st.integers(4, 9))
    net = Network("eval-mesh")
    names = [f"n{i}" for i in range(n)]
    servers = draw(st.integers(2, n))
    for i, name in enumerate(names):
        net.add_node(name, NodeKind.SERVER if i < servers else draw(_KINDS))
    order = draw(st.permutations(names))
    for a, b in zip(order, order[1:]):
        net.add_link(a, b, 100.0, latency_ms=draw(_LATENCIES))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    for a, b in draw(st.lists(pairs, max_size=6)):
        if a != b and not net.has_link(a, b):
            net.add_link(a, b, 100.0, latency_ms=draw(_LATENCIES))
    locals_ = tuple(
        draw(
            st.lists(
                st.sampled_from(names[1:servers]), min_size=1, unique=True
            )
        )
    )
    task = AITask(
        task_id="t",
        model=_model(draw),
        global_node=names[0],
        local_nodes=locals_,
        demand_gbps=draw(st.sampled_from([1.0, 10.0, 30.0])),
    )
    return net, task


def _assert_same(network, schedule, config):
    production = ScheduleEvaluator(network, config)
    reference = ReferenceEvaluator(network, config)
    assert production.report(schedule) == reference.report(schedule)
    assert production.round_latency(schedule) == reference.round_latency(
        schedule
    )


@settings(max_examples=120, deadline=None)
@given(tree_schedules(), configs())
def test_report_equals_per_local_reference(case, config):
    network, schedule = case
    _assert_same(network, schedule, config)


@settings(max_examples=60, deadline=None)
@given(mesh_tasks(), configs(), st.sampled_from(["fixed", "flexible"]))
def test_scheduler_reports_equal_per_local_reference(case, config, which):
    network, task = case
    scheduler = FixedScheduler() if which == "fixed" else FlexibleScheduler()
    try:
        schedule = scheduler.schedule(task, network)
    except ReproError:
        return  # blocked: nothing to evaluate
    _assert_same(network, schedule, config)


def test_missing_tree_rate_is_reported_like_the_reference():
    net = Network("gap")
    for name in ("g", "r", "l"):
        net.add_node(name, NodeKind.SERVER)
    net.add_link("g", "r", 100.0)
    net.add_link("r", "l", 100.0)
    tree = TreeResult(root="g", parent={"r": "g", "l": "r"}, weight=0.0)
    schedule = TaskSchedule(
        task=AITask(
            task_id="t",
            model=MLModelSpec("m", parameters=1e5, train_gflop_per_round=1.0),
            global_node="g",
            local_nodes=("l",),
        ),
        scheduler="flexible-mst",
        broadcast_tree=tree,
        upload_tree=tree,
        broadcast_edge_rates={("g", "r"): 5.0},
        upload_edge_rates={("l", "r"): 5.0, ("r", "g"): 5.0},
    )
    messages = []
    for evaluator in (ScheduleEvaluator(net), ReferenceEvaluator(net)):
        with pytest.raises(ReproError) as caught:
            evaluator.report(schedule)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "('r', 'l')" in messages[0]

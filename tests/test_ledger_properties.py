"""Property-based tests (hypothesis) for the link-state ledger.

Random interleavings of every link-state mutation — ``reserve_edge``,
``reserve_path`` (including paths that fail part-way and roll back),
``release``, ``release_owner``, link and node failure/restore, and
capacity changes — are played on a small network against a plain-dict
model kept by the test, and on a standalone :class:`Link`.  After every
step:

* each ``used`` slot ``==`` a ``sum()`` of the model's bucket for that
  direction (insertion order, so the same float), and is a Python
  ``float``; ``capacity`` and ``failed`` slots match the model too;
* the CSR snapshot served by ``get_snapshot`` holds arrays equal to a
  freshly built :class:`CsrSnapshot`;
* ``residual_list()`` equals the per-edge ``residual_gbps``;
* ``total_reserved_gbps()`` equals the reference loop over the model;
* an owner released with ``release_owner`` leaves no residue.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from repro.errors import CapacityError
from repro.network import csr
from repro.network.csr.snapshot import CsrSnapshot
from repro.network.graph import Network
from repro.network.link import Link
from repro.network.node import NodeKind

NODES = ("a", "b", "c", "d", "e")
LINKS = (
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c"), ("b", "e")
)
OWNERS = ("t0", "t1", "t2", "bg")
CAPACITY = 10.0

# Decimal rates that do not add exactly in binary, so a slot kept as a
# running total would drift from a fresh sum of its bucket.
rates = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 0.7, 1.1, 2.9, 3.3)),
    st.floats(0.05, 7.0, allow_nan=False, allow_infinity=False),
)
directed = st.tuples(st.sampled_from(LINKS), st.booleans()).map(
    lambda pick: pick[0] if pick[1] else pick[0][::-1]
)
owners = st.sampled_from(OWNERS)

operations = st.one_of(
    st.tuples(st.just("reserve_edge"), directed, rates, owners),
    st.tuples(
        st.just("reserve_path"),
        st.sampled_from(NODES),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        rates,
        owners,
    ),
    st.tuples(st.just("release"), directed, owners),
    st.tuples(st.just("release_owner"), owners),
    st.tuples(st.just("fail_link"), st.sampled_from(LINKS)),
    st.tuples(st.just("restore_link"), st.sampled_from(LINKS)),
    st.tuples(st.just("fail_node"), st.sampled_from(NODES)),
    st.tuples(st.just("restore_node"), st.sampled_from(NODES)),
    st.tuples(st.just("capacity"), st.sampled_from(LINKS), st.floats(1.0, 20.0)),
)


def build() -> Network:
    net = Network("ledger")
    for name in NODES:
        net.add_node(name, NodeKind.ROUTER)
    for u, v in LINKS:
        net.add_link(u, v, CAPACITY, distance_km=10.0)
    return net


class Model:
    """What the ledger must hold, in plain dicts."""

    def __init__(self) -> None:
        self.buckets = {}
        for u, v in LINKS:
            self.buckets[(u, v)] = {}
            self.buckets[(v, u)] = {}
        self.capacity = {link: CAPACITY for link in LINKS}
        self.forced = set()
        self.down = set()

    def key(self, src, dst):
        return (src, dst) if (src, dst) in self.capacity else (dst, src)

    def failed(self, src, dst):
        down = src in self.down or dst in self.down
        return down or self.key(src, dst) in self.forced

    def fits(self, buckets, src, dst, gbps):
        used = sum(buckets[(src, dst)].values())
        capacity = self.capacity[self.key(src, dst)]
        return not self.failed(src, dst) and used + gbps <= capacity + 1e-9


def walk(net, start, steps):
    path = [start]
    for step in steps:
        neighbors = net.neighbors(path[-1])
        path.append(neighbors[step % len(neighbors)])
    return path


def apply(net, model, op):
    kind = op[0]
    if kind == "reserve_edge":
        _, (src, dst), gbps, owner = op
        expected = model.fits(model.buckets, src, dst, gbps)
        try:
            net.reserve_edge(src, dst, gbps, owner)
        except CapacityError:
            assert not expected
        else:
            assert expected
            bucket = model.buckets[(src, dst)]
            bucket[owner] = bucket.get(owner, 0.0) + gbps
    elif kind == "reserve_path":
        _, start, steps, gbps, owner = op
        path = walk(net, start, steps)
        trial = {edge: dict(bucket) for edge, bucket in model.buckets.items()}
        expected = True
        for src, dst in zip(path, path[1:]):
            if not model.fits(trial, src, dst, gbps):
                expected = False
                break
            bucket = trial[(src, dst)]
            bucket[owner] = bucket.get(owner, 0.0) + gbps
        try:
            net.reserve_path(path, gbps, owner)
        except CapacityError:
            assert not expected  # rolled back: the model stays as it was
        else:
            assert expected
            model.buckets = trial
    elif kind == "release":
        _, (src, dst), owner = op
        released = net.link(src, dst).release(src, dst, owner)
        assert released == model.buckets[(src, dst)].pop(owner, 0.0)
    elif kind == "release_owner":
        _, owner = op
        net.release_owner(owner)
        for bucket in model.buckets.values():
            bucket.pop(owner, None)
        assert not net.has_reservations(owner)
        assert net.owner_total_gbps(owner) == 0.0
        for link in net.links():
            assert owner not in link.owners()
    elif kind == "fail_link":
        net.fail_link(*op[1])
        model.forced.add(op[1])
    elif kind == "restore_link":
        net.restore_link(*op[1])
        model.forced.discard(op[1])
    elif kind == "fail_node":
        net.fail_node(op[1])
        model.down.add(op[1])
    elif kind == "restore_node":
        net.restore_node(op[1])
        model.down.discard(op[1])
    else:
        _, (u, v), value = op
        net.link(u, v).capacity_gbps = value
        model.capacity[(u, v)] = value


def check_link(link, model_buckets, capacity, failed):
    ledger = link.ledger
    for src, dst in ((link.u, link.v), (link.v, link.u)):
        bucket = model_buckets[(src, dst)]
        slot = link.slot(src, dst)
        used = ledger.used[slot]
        assert type(used) is float
        assert used == sum(bucket.values())
        assert type(link.used_gbps(src, dst)) is float
        assert link.used_gbps(src, dst) == used
        assert type(link.residual_gbps(src, dst)) is float
        assert link.residual_gbps(src, dst) == capacity - used
        assert {r.owner: r.gbps for r in link.reservations(src, dst)} == bucket
        assert ledger.capacity[slot] == capacity
        assert ledger.failed[slot] == failed
    assert type(link.capacity_gbps) is float
    assert link.capacity_gbps == capacity
    assert link.failed is failed


def check(net, model):
    for link in net.links():
        check_link(
            link,
            model.buckets,
            model.capacity[(link.u, link.v)],
            model.failed(link.u, link.v),
        )

    served = csr.get_snapshot(net)
    fresh = CsrSnapshot(net)
    for name in ("latency", "capacity", "used", "failed", "slot_of_pos"):
        assert np.array_equal(getattr(served, name), getattr(fresh, name)), name
    residual = served.residual_list()
    for (src, dst), pos in served.edge_pos.items():
        assert served.used[pos] == sum(model.buckets[(src, dst)].values())
        assert residual[pos] == net.link(src, dst).residual_gbps(src, dst)

    total = 0.0
    for link in net.links():
        total += sum(model.buckets[(link.u, link.v)].values())
        total += sum(model.buckets[(link.v, link.u)].values())
    assert net.total_reserved_gbps() == total
    for owner in OWNERS:
        holds = any(owner in bucket for bucket in model.buckets.values())
        assert net.has_reservations(owner) == holds


@given(st.lists(operations, min_size=1, max_size=40))
# An owner adding to its own entry in the middle of a bucket: a running
# total gives (0.1 + 0.1) + 1.1 == 1.3, the bucket sums
# (0.1 + 1.1) + 0.1 == 1.3000000000000003.
@example(
    [
        ("reserve_edge", ("a", "b"), 0.1, "t0"),
        ("reserve_edge", ("a", "b"), 0.1, "t1"),
        ("reserve_edge", ("a", "b"), 1.1, "t0"),
    ]
)
# A path a -> b -> c failing on its second hop rolls a -> b back to the
# 3.3 its owner held there before, not to nothing.
@example(
    [
        ("reserve_edge", ("a", "b"), 3.3, "t0"),
        ("reserve_edge", ("b", "c"), 9.0, "t1"),
        ("reserve_path", "a", [0, 1], 2.0, "t0"),
    ]
)
def test_network_ledger_matches_model(ops):
    net = build()
    model = Model()
    csr.get_snapshot(net)  # attached before the mutations, refreshed after each
    ledger = net.ledger
    for op in ops:
        epoch = net.epoch
        before = list(ledger.used), list(ledger.capacity), list(ledger.failed)
        apply(net, model, op)
        check(net, model)
        after = list(ledger.used), list(ledger.capacity), list(ledger.failed)
        if net.epoch == epoch:
            assert after == before  # an unmoved epoch means no slot moved


link_operations = st.one_of(
    st.tuples(st.just("reserve"), st.booleans(), rates, owners),
    st.tuples(st.just("release"), st.booleans(), owners),
    st.tuples(st.just("release_owner"), owners),
    st.tuples(st.just("failed"), st.booleans()),
    st.tuples(st.just("endpoint"), st.booleans()),
    st.tuples(st.just("capacity"), st.floats(1.0, 20.0)),
)


@given(st.lists(link_operations, min_size=1, max_size=40))
@example(
    [
        ("reserve", True, 0.1, "t0"),
        ("reserve", True, 0.1, "t1"),
        ("reserve", True, 1.1, "t0"),
        ("release", True, "t1"),
    ]
)
def test_standalone_link_ledger_matches_model(ops):
    link = Link("u", "v", CAPACITY)
    buckets = {("u", "v"): {}, ("v", "u"): {}}
    capacity, forced, down = CAPACITY, False, 0
    for op in ops:
        kind = op[0]
        if kind in ("reserve", "release"):
            src, dst = ("u", "v") if op[1] else ("v", "u")
            bucket = buckets[(src, dst)]
        if kind == "reserve":
            _, _, gbps, owner = op
            used = sum(bucket.values())
            fits = not (forced or down) and used + gbps <= capacity + 1e-9
            try:
                link.reserve(src, dst, gbps, owner)
            except CapacityError:
                assert not fits
            else:
                assert fits
                bucket[owner] = bucket.get(owner, 0.0) + gbps
        elif kind == "release":
            assert link.release(src, dst, op[2]) == bucket.pop(op[2], 0.0)
        elif kind == "release_owner":
            link.release_owner(op[1])
            for bucket in buckets.values():
                bucket.pop(op[1], None)
            assert op[1] not in link.owners()
            assert not link.ledger.holds_anywhere(op[1])
        elif kind == "failed":
            link.failed = forced = op[1]
        elif kind == "endpoint":
            if op[1]:
                link.mark_endpoint_down()
                down += 1
            elif down:
                link.mark_endpoint_up()
                down -= 1
        else:
            link.capacity_gbps = capacity = op[1]
        check_link(link, buckets, capacity, forced or down > 0)
        assert len(link.ledger.used) == 2

"""Batched point-to-point queries against the oracle's object Dijkstra.

``csr.shortest_paths_csr`` answers a batch of ``(source, destination)``
pairs from one snapshot and one weight lowering, one early-exit solve
per pair.  Every answer must equal the ``tests/oracle.py`` reference's
Dijkstra under the spec's scalar weight function: the same nodes, the same weight bit for bit, and the same
:class:`NoPathError` where Dijkstra raises one.  Graphs are drawn on
both sides of ``kernel.VECTOR_MIN_EDGES``, so both the heap loop and
the vectorised solve answer.  The hypothesis suites are derandomised,
so a failure reproduces byte for byte.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.errors import NoPathError, TopologyError
from repro.network import csr
from repro.network.csr import kernel
from repro.network.graph import Network
from repro.network.node import NodeKind
from repro.network.routing import HopWeightSpec, LatencyWeightSpec
from repro.network.topology import scale_free

from tests.oracle import ObjectOracleCache

# Few distinct latencies, so exact ties (zero-latency edges included)
# and 0.1 + 0.2 style near-ties are common rather than vanishingly rare.
LATENCIES = [0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0, 3.0]


def _assert_batch_matches(network, pairs, spec):
    """Every batch answer equals the object kernel's, error or path."""
    oracle = ObjectOracleCache(network)
    got = csr.shortest_paths_csr(network, pairs, spec)
    assert len(got) == len(pairs)
    for (source, destination), answer in zip(pairs, got):
        try:
            expected = oracle.shortest_path(source, destination, spec)
        except NoPathError as exc:
            assert isinstance(answer, NoPathError)
            assert (answer.source, answer.destination) == (
                exc.source,
                exc.destination,
            )
            assert str(answer) == str(exc)
            continue
        assert not isinstance(answer, NoPathError), (source, destination)
        assert answer.nodes == expected.nodes
        assert type(answer.weight) is float
        assert answer.weight.hex() == expected.weight.hex()
    return got


@st.composite
def latency_graphs(draw):
    """A random graph, possibly disconnected, with some links failed.

    ``big`` graphs carry more than ``VECTOR_MIN_EDGES`` directed edges,
    so the size dispatch tries the vectorised solve on them; their links
    come from a drawn seed, since drawing hundreds of links one by one
    would dominate the run.
    """
    big = draw(st.booleans())
    if big:
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = rng.randint(48, 60)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        links = rng.sample(pairs, kernel.VECTOR_MIN_EDGES // 2 + 8)
        latencies = [
            rng.choice(LATENCIES) if rng.random() < 0.7 else rng.uniform(0, 10)
            for _ in links
        ]
        failed = [rng.random() < 0.1 for _ in links]
    else:
        n = draw(st.integers(1, 14))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        links = (
            draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
            if pairs
            else []
        )
        latency = st.sampled_from(LATENCIES) | st.floats(0.0, 10.0, allow_nan=False)
        latencies = [draw(latency) for _ in links]
        failed = [draw(st.integers(0, 9)) == 0 for _ in links]
    net = Network("random")
    for i in range(n):
        net.add_node(f"n{i}", NodeKind.ROUTER)
    for (a, b), latency_ms in zip(links, latencies):
        net.add_link(f"n{a}", f"n{b}", 100.0, latency_ms=latency_ms)
    for (a, b), down in zip(links, failed):
        if down:
            net.fail_link(f"n{a}", f"n{b}")
    names = net.node_names()
    queries = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            min_size=1,
            max_size=12,
        )
    )
    return net, queries


class TestProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(latency_graphs())
    def test_batch_equals_object_dijkstra(self, case):
        net, queries = case
        _assert_batch_matches(net, queries, LatencyWeightSpec(net))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(0, 40))
    def test_scale_free_above_the_cut(self, seed, n_failed):
        net = scale_free(n_routers=250, m_links=2, seed=seed, servers_per_site=1)
        assert csr.get_snapshot(net).m >= kernel.VECTOR_MIN_EDGES
        links = net.inter_switch_links()
        for u, v in links[seed % 7 :: 1 + len(links) // (n_failed + 1)][:n_failed]:
            net.fail_link(u, v)
        names = net.node_names()
        step = 1 + seed % 13
        pairs = [
            (names[(seed + 31 * i) % len(names)], names[(seed + step * i) % len(names)])
            for i in range(10)
        ]
        _assert_batch_matches(net, pairs, LatencyWeightSpec(net))


class TestHandBuilt:
    def test_disconnected_pairs_and_self_pair(self):
        net = Network("split")
        for name in ("a", "b", "c", "x", "y"):
            net.add_node(name, NodeKind.ROUTER)
        net.add_link("a", "b", 100.0, distance_km=3.0)
        net.add_link("b", "c", 100.0, distance_km=4.0)
        net.add_link("x", "y", 100.0, distance_km=1.0)
        got = _assert_batch_matches(
            net,
            [("a", "c"), ("a", "x"), ("c", "c"), ("y", "x"), ("c", "y")],
            LatencyWeightSpec(net),
        )
        assert [type(answer).__name__ for answer in got] == [
            "PathResult",
            "NoPathError",
            "PathResult",
            "PathResult",
            "NoPathError",
        ]
        assert got[2].nodes == ("c",) and got[2].weight == 0.0

    def test_failed_link_cuts_the_only_route(self, square_net):
        square_net.fail_link("A", "C")
        square_net.fail_link("B", "C")
        square_net.fail_link("C", "D")
        got = _assert_batch_matches(
            square_net, [("A", "C"), ("A", "D")], LatencyWeightSpec(square_net)
        )
        assert isinstance(got[0], NoPathError)
        assert got[1].nodes == ("A", "D")

    def test_zero_latency_tie_edges(self):
        # Two zero-latency routes a->b->d and a->c->d tie exactly; the
        # first-pushed predecessor must win in both kernels.
        net = Network("ties")
        for name in "abcd":
            net.add_node(name, NodeKind.ROUTER)
        for u, v in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            net.add_link(u, v, 100.0, distance_km=0.0)
        got = _assert_batch_matches(
            net, [("a", "d"), ("d", "a")], LatencyWeightSpec(net)
        )
        assert got[0].nodes == ("a", "b", "d")
        assert got[0].weight == 0.0

    def test_hop_spec_and_vectorised_side(self):
        net = scale_free(n_routers=250, m_links=2, seed=6, servers_per_site=1)
        assert csr.get_snapshot(net).m >= kernel.VECTOR_MIN_EDGES
        servers = net.servers()
        pairs = list(zip(servers[::25], servers[7::25]))
        _assert_batch_matches(net, pairs, HopWeightSpec(net))
        _assert_batch_matches(net, pairs, LatencyWeightSpec(net))

    def test_unknown_node_raises_before_solving(self, square_net):
        with pytest.raises(TopologyError) as info:
            csr.shortest_paths_csr(
                square_net, [("A", "B"), ("A", "nope")], LatencyWeightSpec(square_net)
            )
        assert not isinstance(info.value, NoPathError)

    def test_empty_batch(self, square_net):
        assert csr.shortest_paths_csr(square_net, [], LatencyWeightSpec(square_net)) == []

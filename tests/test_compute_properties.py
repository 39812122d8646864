"""Property-based tests (hypothesis) for server usage and placement.

A :class:`Server` keeps its per-dimension usage as three sums written
after every ``place``/``evict``.  Random interleavings of direct
``place``/``evict`` on servers and ``deploy``/``destroy`` through a
:class:`ComputingManager` are played against a plain model kept by the
test (each server's hosted containers in placement order).  After every
step, for every server:

* ``used`` ``==`` a fresh ``sum()`` of the model's demands per dimension
  (placement order, so the same float), and ``free`` ``==`` capacity
  minus that sum.

And for a probe demand, ``first_fit`` picks the same server as filtering
the whole pool by the model's spare capacity, or raises the same
``PlacementError`` when none fits.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from repro.compute.container import Container, ResourceDemand
from repro.compute.manager import ComputingManager
from repro.compute.placement import first_fit
from repro.compute.server import Server
from repro.errors import PlacementError

#: (name, node): two servers share node "n0" so node-restricted
#: placement has a pool of more than one.
SERVERS = (("s0", "n0"), ("s1", "n0"), ("s2", "n1"))
IDS = tuple(f"c{i}" for i in range(6))
# Values whose float sums depend on the order they are added in.
_AMOUNTS = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 1.1, 2.5])
demands = st.builds(
    ResourceDemand, cpu_cores=_AMOUNTS, gpu_gflops=_AMOUNTS, memory_gb=_AMOUNTS
)

operations = st.one_of(
    st.tuples(
        st.just("place"),
        st.sampled_from([name for name, _node in SERVERS]),
        st.sampled_from(IDS),
        demands,
    ),
    st.tuples(
        st.just("evict"),
        st.sampled_from([name for name, _node in SERVERS]),
        st.sampled_from(IDS),
    ),
    st.tuples(
        st.just("deploy"),
        st.sampled_from([None, "n0", "n1"]),
        st.sampled_from(IDS),
        demands,
    ),
    st.tuples(st.just("destroy"), st.sampled_from(IDS)),
)


def _sums(hosted):
    return (
        sum(c.demand.cpu_cores for c in hosted),
        sum(c.demand.gpu_gflops for c in hosted),
        sum(c.demand.memory_gb for c in hosted),
    )


def _model_fits(server, hosted, demand):
    cpu, gpu, mem = _sums(hosted)
    return (
        demand.cpu_cores <= server.cpu_cores - cpu + 1e-9
        and demand.gpu_gflops <= server.gpu_gflops - gpu + 1e-9
        and demand.memory_gb <= server.memory_gb - mem + 1e-9
    )


def _check(servers, model, probe):
    for name, server in servers.items():
        hosted = model[name]
        cpu, gpu, mem = _sums(hosted)
        assert server.used == ResourceDemand(cpu, gpu, mem)
        assert server.free == ResourceDemand(
            server.cpu_cores - cpu, server.gpu_gflops - gpu, server.memory_gb - mem
        )
        assert [c.container_id for c in server.containers] == [
            c.container_id for c in hosted
        ]
    pool = list(servers.values())
    fitting = [s for s in pool if _model_fits(s, model[s.name], probe)]
    if fitting:
        assert first_fit(pool, probe) is fitting[0]
    else:
        with pytest.raises(PlacementError) as caught:
            first_fit(pool, probe)
        assert str(caught.value) == (
            f"no server fits demand {probe} among {len(pool)} candidates"
        )


@given(
    st.tuples(st.sampled_from([1.0, 2.5]), st.sampled_from([1.0, 3.0])),
    st.lists(st.tuples(operations, demands), min_size=1, max_size=40),
)
@example(
    # Place 0.1, 0.2 and 0.3, then evict 0.2: a running total reads
    # 0.4000000000000001, the sum over the two hosted containers 0.4.
    (1.0, 1.0),
    [
        (("place", "s0", "c0", ResourceDemand(0.1, 0.1, 0.1)), ResourceDemand()),
        (("place", "s0", "c1", ResourceDemand(0.2, 0.2, 0.2)), ResourceDemand()),
        (("place", "s0", "c2", ResourceDemand(0.3, 0.3, 0.3)), ResourceDemand()),
        (("evict", "s0", "c1"), ResourceDemand(0.6, 0.6, 0.6)),
    ],
)
def test_usage_is_a_fresh_sum_after_every_step(capacities, steps):
    small, large = capacities
    manager = ComputingManager()
    servers = {}
    for index, (name, node) in enumerate(SERVERS):
        capacity = small if index == 0 else large
        server = Server(
            name, node, cpu_cores=capacity, gpu_gflops=capacity, memory_gb=capacity
        )
        manager.register(server)
        servers[name] = server
    model = {name: [] for name in servers}
    deployed = {}  # container id -> server name, for manager-placed ones

    def hosted_anywhere(container_id):
        return any(
            c.container_id == container_id for hosted in model.values() for c in hosted
        )

    for operation, probe in steps:
        kind = operation[0]
        if kind == "place":
            _kind, name, container_id, demand = operation
            server = servers[name]
            container = Container(container_id, demand=demand)
            duplicate = any(c.container_id == container_id for c in model[name])
            if duplicate or not _model_fits(server, model[name], demand):
                with pytest.raises(PlacementError):
                    server.place(container)
            elif not hosted_anywhere(container_id):
                server.place(container)
                model[name].append(container)
        elif kind == "evict":
            _kind, name, container_id = operation
            server = servers[name]
            hosted = [c for c in model[name] if c.container_id == container_id]
            if not hosted or container_id in deployed:
                if not hosted:
                    with pytest.raises(PlacementError):
                        server.evict(container_id)
                continue
            assert server.evict(container_id) is hosted[0]
            model[name].remove(hosted[0])
        elif kind == "deploy":
            _kind, node, container_id, demand = operation
            if hosted_anywhere(container_id):
                continue
            pool = [s for s in servers.values() if node is None or s.node == node]
            fitting = [s for s in pool if _model_fits(s, model[s.name], demand)]
            container = Container(container_id, demand=demand)
            if not fitting:
                with pytest.raises(PlacementError):
                    manager.deploy(container, node=node)
                continue
            assert manager.deploy(container, node=node) is fitting[0]
            model[fitting[0].name].append(container)
            deployed[container_id] = fitting[0].name
        else:
            _kind, container_id = operation
            if container_id not in deployed:
                if not hosted_anywhere(container_id):
                    with pytest.raises(PlacementError):
                        manager.destroy(container_id)
                continue
            name = deployed.pop(container_id)
            hosted = [c for c in model[name] if c.container_id == container_id]
            assert manager.destroy(container_id) is hosted[0]
            model[name].remove(hosted[0])
        _check(servers, model, probe)

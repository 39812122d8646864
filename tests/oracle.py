"""The object-kernel reference oracle for the production routing path.

Production schedulers route every query through the network's
:class:`~repro.network.routing.PathCache`, which runs the CSR kernel.
:class:`ObjectOracleCache` answers the same queries with the object
kernel (:mod:`repro.network.paths` and :func:`repro.network.routing.sssp`)
over ``spec.weight_fn()``, uncached.  :func:`object_oracle` swaps it in
for :func:`~repro.network.routing.get_cache`, so a production scheduler's
own control flow can be replayed against the oracle and compared.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.network import routing
from repro.network.paths import dijkstra, k_shortest_paths, terminal_tree


class ObjectOracleCache:
    """Uncached object-kernel stand-in for a network's ``PathCache``."""

    def __init__(self, network) -> None:
        self._network = network

    def sssp(self, source, spec):
        return routing.sssp(self._network, source, spec.weight_fn())

    def shortest_path(self, source, destination, spec):
        return dijkstra(self._network, source, destination, spec.weight_fn())

    def k_shortest_paths(self, source, destination, k, spec):
        return k_shortest_paths(
            self._network, source, destination, k, spec.weight_fn()
        )

    def terminal_tree(self, root, terminals, spec):
        return terminal_tree(self._network, root, terminals, spec.weight_fn())


@contextmanager
def object_oracle():
    """Route every scheduler query through :class:`ObjectOracleCache`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            routing,
            "get_cache",
            lambda network, max_entries=None: ObjectOracleCache(network),
        )
        yield

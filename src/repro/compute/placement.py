"""Container placement policies.

Each policy takes the candidate servers (in a deterministic order) and a
demand, and returns the chosen :class:`~repro.compute.server.Server`.
``first_fit`` is the baseline of the paper ("first fit" in SPFF); the
alternatives exist for ablations and for the flexible scheduler's
orchestrator, which may prefer spreading load.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..errors import PlacementError
from .container import ResourceDemand
from .server import Server

#: Signature every placement policy implements.
PlacementPolicy = Callable[[Sequence[Server], ResourceDemand], Server]


def _no_fit(servers: Sequence[Server], demand: ResourceDemand) -> PlacementError:
    return PlacementError(
        f"no server fits demand {demand} among {len(servers)} candidates"
    )


def _feasible(servers: Sequence[Server], demand: ResourceDemand) -> List[Server]:
    fitting = [s for s in servers if s.fits(demand)]
    if not fitting:
        raise _no_fit(servers, demand)
    return fitting


def first_fit(servers: Sequence[Server], demand: ResourceDemand) -> Server:
    """The first server (in given order) with room — the SPFF baseline.

    Servers after the first fit are not tested.
    """
    for server in servers:
        if server.fits(demand):
            return server
    raise _no_fit(servers, demand)


def best_fit(servers: Sequence[Server], demand: ResourceDemand) -> Server:
    """The feasible server left with the *least* slack (tight packing)."""
    return min(
        _feasible(servers, demand),
        key=lambda s: (s.free.gpu_gflops - demand.gpu_gflops, s.name),
    )


def worst_fit(servers: Sequence[Server], demand: ResourceDemand) -> Server:
    """The feasible server left with the *most* slack (load spreading)."""
    return max(
        _feasible(servers, demand),
        key=lambda s: (s.free.gpu_gflops - demand.gpu_gflops, s.name),
    )


def least_loaded(servers: Sequence[Server], demand: ResourceDemand) -> Server:
    """The feasible server with the lowest binding-dimension utilisation."""
    return min(_feasible(servers, demand), key=lambda s: (s.load_fraction(), s.name))

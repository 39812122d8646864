"""Container placement: first fit, the paper's baseline ("first fit" in SPFF).

:func:`first_fit` takes the candidate servers (in a deterministic order)
and a demand, and returns the chosen :class:`~repro.compute.server.Server`.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import PlacementError
from .container import ResourceDemand
from .server import Server


def first_fit(servers: Sequence[Server], demand: ResourceDemand) -> Server:
    """The first server (in given order) with room — the SPFF baseline.

    Servers after the first fit are not tested.
    """
    for server in servers:
        if server.fits(demand):
            return server
    raise PlacementError(
        f"no server fits demand {demand} among {len(servers)} candidates"
    )

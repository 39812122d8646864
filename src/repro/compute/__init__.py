"""Compute substrate: servers, containers, placement, manager.

The paper's testbed runs AI models in docker containers on Linux servers
managed by a *computing manager*.  This package reproduces the resource
side of that: :class:`~repro.compute.server.Server` tracks CPU/GPU/memory
capacity, :class:`~repro.compute.container.Container` is the unit of
placement, :mod:`~repro.compute.placement` provides first fit (the
baseline's "FF"), and
:class:`~repro.compute.manager.ComputingManager` is the control-plane
component the orchestrator talks to.
"""

from .container import Container, ResourceDemand
from .manager import ComputingManager
from .placement import first_fit
from .server import Server

__all__ = [
    "Container",
    "ResourceDemand",
    "ComputingManager",
    "first_fit",
    "Server",
]

"""The computing manager: the control-plane view of all servers.

The orchestrator (paper Fig. 2) talks to a *computing manager* to create
and destroy the containers hosting global/local models.  This class keeps
the server inventory, places containers first fit, and reports the
accelerator rate each placed container holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, PlacementError
from .container import Container
from .placement import first_fit
from .server import Server


class ComputingManager:
    """Inventory of servers plus placement/teardown operations."""

    def __init__(self) -> None:
        self._servers: Dict[str, Server] = {}
        # node -> its servers in registration order, so node-restricted
        # placement looks at one node's servers instead of the fleet.
        self._by_node: Dict[str, List[Server]] = {}
        self._containers: Dict[str, Server] = {}

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def register(self, server: Server) -> None:
        """Add a server to the inventory.

        Raises:
            ConfigurationError: on duplicate server names.
        """
        if server.name in self._servers:
            raise ConfigurationError(f"duplicate server {server.name!r}")
        self._servers[server.name] = server
        self._by_node.setdefault(server.node, []).append(server)

    def server(self, name: str) -> Server:
        try:
            return self._servers[name]
        except KeyError:
            raise ConfigurationError(f"unknown server {name!r}") from None

    @property
    def servers(self) -> List[Server]:
        """All servers in registration order."""
        return list(self._servers.values())

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        container: Container,
        *,
        node: Optional[str] = None,
        candidates: Optional[Sequence[str]] = None,
    ) -> Server:
        """Place a container on the first server with room (:func:`first_fit`).

        Args:
            container: the container to host.
            node: restrict placement to servers at this network node.
            candidates: restrict placement to these server names (ordered).

        Returns:
            The chosen server.

        Raises:
            PlacementError: when nothing fits.
        """
        if node is not None and candidates is not None:
            raise ConfigurationError("pass either node or candidates, not both")
        if node is not None:
            pool: Sequence[Server] = self._by_node.get(node, ())
            if not pool:
                raise PlacementError(f"no servers at node {node!r}")
        elif candidates is not None:
            pool = [self.server(name) for name in candidates]
        else:
            pool = self.servers
        chosen = first_fit(pool, container.demand)
        chosen.place(container)
        self._containers[container.container_id] = chosen
        return chosen

    def destroy(self, container_id: str) -> Container:
        """Evict a container wherever it runs.

        Raises:
            PlacementError: for unknown container ids.
        """
        host = self._containers.pop(container_id, None)
        if host is None:
            raise PlacementError(f"unknown container {container_id!r}")
        return host.evict(container_id)

    def host_of(self, container_id: str) -> Server:
        """The server hosting a container."""
        host = self._containers.get(container_id)
        if host is None:
            raise PlacementError(f"unknown container {container_id!r}")
        return host

    def container_gflops(self, container_id: str) -> float:
        """Accelerator rate reserved by a placed container."""
        return self.host_of(container_id).effective_gflops(container_id)

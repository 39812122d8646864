"""Servers: multi-resource capacity with container bookkeeping."""

from __future__ import annotations

from typing import Dict, List

from ..errors import ConfigurationError, PlacementError
from .container import Container, ResourceDemand


class Server:
    """A compute host attached to a network node.

    Args:
        name: unique server identifier.
        node: name of the network node the server hangs off.
        cpu_cores: CPU capacity.
        gpu_gflops: aggregate accelerator speed (drives training time).
        memory_gb: memory capacity.

    The server admits a container only when every resource dimension fits;
    the invariant ``used <= capacity`` holds per dimension at all times.
    """

    def __init__(
        self,
        name: str,
        node: str,
        *,
        cpu_cores: float = 32.0,
        gpu_gflops: float = 10_000.0,
        memory_gb: float = 128.0,
    ) -> None:
        for label, value in (
            ("cpu_cores", cpu_cores),
            ("gpu_gflops", gpu_gflops),
            ("memory_gb", memory_gb),
        ):
            if value <= 0:
                raise ConfigurationError(f"{label} must be > 0, got {value}")
        self.name = name
        self.node = node
        self.cpu_cores = float(cpu_cores)
        self.gpu_gflops = float(gpu_gflops)
        self.memory_gb = float(memory_gb)
        self._containers: Dict[str, Container] = {}
        # Summed demand of the hosted containers per dimension, rewritten
        # after every place/evict as one sum() in placement order (never
        # a running total, which would drift from sum() in the last bits).
        self._used_cpu = 0
        self._used_gpu = 0
        self._used_mem = 0

    # ------------------------------------------------------------------
    @property
    def containers(self) -> List[Container]:
        """Hosted containers in placement order."""
        return list(self._containers.values())

    def _resum(self) -> None:
        hosted = self._containers.values()
        self._used_cpu = sum(c.demand.cpu_cores for c in hosted)
        self._used_gpu = sum(c.demand.gpu_gflops for c in hosted)
        self._used_mem = sum(c.demand.memory_gb for c in hosted)

    @property
    def used(self) -> ResourceDemand:
        """Summed demand of hosted containers."""
        return ResourceDemand(
            cpu_cores=self._used_cpu,
            gpu_gflops=self._used_gpu,
            memory_gb=self._used_mem,
        )

    @property
    def free(self) -> ResourceDemand:
        """Per-dimension spare capacity."""
        return ResourceDemand(
            cpu_cores=self.cpu_cores - self._used_cpu,
            gpu_gflops=self.gpu_gflops - self._used_gpu,
            memory_gb=self.memory_gb - self._used_mem,
        )

    def fits(self, demand: ResourceDemand) -> bool:
        """Whether ``demand`` fits in the current spare capacity."""
        return (
            demand.cpu_cores <= self.cpu_cores - self._used_cpu + 1e-9
            and demand.gpu_gflops <= self.gpu_gflops - self._used_gpu + 1e-9
            and demand.memory_gb <= self.memory_gb - self._used_mem + 1e-9
        )

    def place(self, container: Container) -> None:
        """Host a container.

        Raises:
            PlacementError: if a dimension would overflow or the id exists.
        """
        if not self.fits(container.demand):
            raise PlacementError(
                f"container {container.container_id!r} does not fit on "
                f"{self.name!r} (free: {self.free})"
            )
        self.host(container)

    def host(self, container: Container) -> None:
        """Host a container whose demand is known to fit.

        :meth:`place` without its capacity test, for a caller that has
        just run :meth:`fits` on this state (first-fit placement).

        Raises:
            PlacementError: if the id exists.
        """
        if container.container_id in self._containers:
            raise PlacementError(
                f"container {container.container_id!r} already on {self.name!r}"
            )
        container.server = self.name
        self._containers[container.container_id] = container
        self._resum()

    def evict(self, container_id: str) -> Container:
        """Remove a container and return it.

        Raises:
            PlacementError: if the container is not hosted here.
        """
        try:
            container = self._containers.pop(container_id)
        except KeyError:
            raise PlacementError(
                f"container {container_id!r} not on {self.name!r}"
            ) from None
        self._resum()
        container.server = None
        return container

    def effective_gflops(self, container_id: str) -> float:
        """Accelerator speed available to one container (its reservation)."""
        container = self._containers.get(container_id)
        if container is None:
            raise PlacementError(
                f"container {container_id!r} not on {self.name!r}"
            )
        return container.demand.gpu_gflops

    def __repr__(self) -> str:  # pragma: no cover
        return f"Server({self.name!r} @ {self.node!r}, {len(self._containers)} containers)"

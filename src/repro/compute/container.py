"""Containers: the unit of model placement."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ResourceDemand:
    """A multi-dimensional resource request (or usage report)."""

    cpu_cores: float = 1.0
    gpu_gflops: float = 1000.0
    memory_gb: float = 4.0

    def __post_init__(self) -> None:
        for label in ("cpu_cores", "gpu_gflops", "memory_gb"):
            if getattr(self, label) < 0:
                raise ConfigurationError(
                    f"{label} must be >= 0, got {getattr(self, label)}"
                )


@dataclass
class Container:
    """A docker-style container hosting one model replica.

    Attributes:
        container_id: unique identifier (usually ``{task}-{role}``).
        demand: resources the container reserves while placed.
        role: free-form label ("global", "local-3", "aggregator"...).
        server: name of the hosting server (set on placement).
    """

    container_id: str
    demand: ResourceDemand = field(default_factory=ResourceDemand)
    role: str = ""
    server: Optional[str] = None

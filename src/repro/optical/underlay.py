"""Optical underlay: mirror IP-layer reservations into lightpaths.

The paper's testbed carries every IP-layer path over wavelengths switched
by ROADMs.  :class:`OpticalUnderlay` reproduces that coupling at the
orchestration level: each inter-site edge a schedule occupies is groomed
onto a lightpath between the corresponding ROADM sites (reusing spare
lightpath capacity first, lighting new wavelengths first-fit otherwise),
and released when the task completes.

This turns "consumed bandwidth" into a *spectrum* cost — lit wavelength-
hops — the metric the authors' companion OFC paper optimises, and lets
experiments show that the flexible scheduler's smaller trees also light
less spectrum.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.base import TaskSchedule
from ..errors import ConfigurationError, TopologyError
from ..network.graph import Network
from ..network.node import NodeKind
from .grooming import GroomingLayer
from .roadm import RoadmPorts
from .wavelength import WDMGrid


def optical_ring(n_sites: int, *, ring_km: float = 160.0) -> Network:
    """A ROADM-only ring used as the optical layer under a metro fabric."""
    if n_sites < 3:
        raise ConfigurationError(f"a ring needs >= 3 sites, got {n_sites}")
    net = Network(f"optical-ring-{n_sites}")
    span = ring_km / n_sites
    for i in range(n_sites):
        net.add_node(f"ROADM-{i}", NodeKind.ROADM)
    for i in range(n_sites):
        net.add_link(
            f"ROADM-{i}", f"ROADM-{(i + 1) % n_sites}", 1e9, distance_km=span
        )
    return net


class OpticalUnderlay:
    """Grooms a schedule's inter-site edges onto an optical layer.

    Args:
        ip_network: the IP fabric schedules are computed on.
        optical_network: ROADM-level topology lightpaths route over.
        site_of: IP node name -> ROADM site name.  Edges whose endpoints
            map to the same site (server/router attachments) stay
            electrical and are not mirrored.
        n_wavelengths / channel_gbps / ports_per_site: WDM parameters.
    """

    def __init__(
        self,
        ip_network: Network,
        optical_network: Network,
        site_of: Dict[str, str],
        *,
        n_wavelengths: int = 40,
        channel_gbps: float = 100.0,
        ports_per_site: int = 32,
    ) -> None:
        self._ip = ip_network
        self._optical = optical_network
        self._site_of = dict(site_of)
        for site in self._site_of.values():
            if site not in optical_network:
                raise TopologyError(f"site {site!r} missing from optical layer")
        self._grooming = GroomingLayer(
            optical_network,
            WDMGrid(optical_network, n_wavelengths, channel_gbps),
            ports=RoadmPorts(ports_per_site),
        )
        self._demands_of_task: Dict[str, List[str]] = {}

    @property
    def grooming(self) -> GroomingLayer:
        return self._grooming

    def site_of(self, node: str) -> str:
        """The ROADM site an IP node homes to.

        Raises:
            TopologyError: if the node was not mapped.
        """
        try:
            return self._site_of[node]
        except KeyError:
            raise TopologyError(f"node {node!r} has no optical site") from None

    # ------------------------------------------------------------------
    def mirror_schedule(self, schedule: TaskSchedule) -> int:
        """Groom every inter-site occupied edge; returns demands created."""
        task_id = schedule.task.task_id
        if task_id in self._demands_of_task:
            raise ConfigurationError(
                f"task {task_id!r} already mirrored; release it first"
            )
        created: List[str] = []
        try:
            for (u, v), rate in sorted(schedule.occupied_edges().items()):
                src_site, dst_site = self.site_of(u), self.site_of(v)
                if src_site == dst_site:
                    continue  # intra-site hop stays electrical
                demand_id = f"{task_id}:{u}>{v}"
                self._grooming.groom_demand(demand_id, src_site, dst_site, rate)
                created.append(demand_id)
        except Exception:
            for demand_id in created:
                self._grooming.release_demand(demand_id)
            raise
        self._demands_of_task[task_id] = created
        return len(created)

    def release_task(self, task_id: str) -> float:
        """Release every groomed demand of one task; returns rate freed."""
        freed = 0.0
        for demand_id in self._demands_of_task.pop(task_id, []):
            freed += self._grooming.release_demand(demand_id)
        return freed

    # ------------------------------------------------------------------
    @property
    def lit_wavelength_hops(self) -> int:
        """Spectrum cost: summed hops of live lightpaths."""
        return self._grooming.lit_wavelength_hops

    @property
    def lit_lightpaths(self) -> int:
        return len(self._grooming.lightpaths)


def metro_underlay(
    ip_network: Network,
    *,
    ring_km: float = 160.0,
    n_wavelengths: int = 40,
    channel_gbps: float = 100.0,
) -> OpticalUnderlay:
    """Build the underlay for a :func:`~repro.network.topology.metro_ring`
    or ``metro_mesh`` fabric (nodes named ``RT-i`` / ``SRV-i-j`` /
    ``ROADM-i``).

    Every node of site ``i`` maps to optical site ``ROADM-i``; the optical
    layer is a ROADM ring of the same site count.
    """
    sites = sorted(
        int(name.split("-")[1])
        for name in ip_network.node_names(NodeKind.ROADM)
    )
    if not sites:
        raise TopologyError("fabric has no ROADM-<i> nodes to anchor sites")
    optical = optical_ring(len(sites), ring_km=ring_km)
    site_of: Dict[str, str] = {}
    for node in ip_network.node_names():
        parts = node.split("-")
        if len(parts) < 2:
            raise TopologyError(f"cannot derive a site from node {node!r}")
        site_of[node] = f"ROADM-{int(parts[1])}"
    return OpticalUnderlay(
        ip_network,
        optical,
        site_of,
        n_wavelengths=n_wavelengths,
        channel_gbps=channel_gbps,
    )

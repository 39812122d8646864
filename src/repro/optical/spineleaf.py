"""The all-optical spine-leaf fabric of open challenge #3.

The paper argues that access/metro/core architectures fit poorly for
interconnecting distributed compute, and proposes an *all-optical
spine-leaf* design where leaf switches reach each other through optical
circuit switching (OCS, whole wavelengths) collaborating with optical time
slicing (OTS, sub-wavelength timeslots).

:class:`OpticalSpineLeaf` manages that fabric:

* a leaf-to-leaf demand first tries to ride an existing OCS circuit's
  timeslot table (OTS sharing);
* otherwise a new wavelength circuit is established leaf→spine→leaf
  through the least-loaded spine with a continuity-feasible channel;
* circuits whose timeslot tables drain are torn down, returning spectrum.

Latency through the fabric is two short hops with no electrical queueing,
which is the architecture's selling point versus the metro mesh — the
``abl-spineleaf`` benchmark quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import CapacityError, ConfigurationError, TopologyError, WavelengthError
from ..network.graph import Network
from ..network.node import NodeKind
from .timeslot import TimeslotTable
from .wavelength import WDMGrid


@dataclass
class OcsCircuit:
    """A leaf-to-leaf wavelength circuit through one spine."""

    src_leaf: str
    dst_leaf: str
    spine: str
    channel: int
    slots: TimeslotTable = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def path(self) -> Tuple[str, str, str]:
        return (self.src_leaf, self.spine, self.dst_leaf)


class OpticalSpineLeaf:
    """OCS + OTS management over a spine-leaf topology.

    Args:
        network: a topology from :func:`repro.network.topology.spine_leaf`
            (or any graph whose SPINE nodes join LEAF nodes).
        n_wavelengths: WDM channels per fibre.
        channel_gbps: rate of one lit wavelength.
        slots_per_channel: OTS granularity of each circuit.
    """

    def __init__(
        self,
        network: Network,
        *,
        n_wavelengths: int = 20,
        channel_gbps: float = 100.0,
        slots_per_channel: int = 10,
    ) -> None:
        self._network = network
        self._grid = WDMGrid(network, n_wavelengths, channel_gbps)
        self._slots_per_channel = slots_per_channel
        self._channel_gbps = channel_gbps
        self._circuits: List[OcsCircuit] = []
        self._spines = network.node_names(NodeKind.SPINE)
        self._leaves = network.node_names(NodeKind.LEAF)
        if not self._spines or not self._leaves:
            raise TopologyError(
                "spine-leaf fabric requires SPINE and LEAF nodes"
            )

    @property
    def circuits(self) -> List[OcsCircuit]:
        """Live OCS circuits in creation order."""
        return list(self._circuits)

    def leaf_of(self, server: str) -> str:
        """The leaf switch a server hangs off.

        Raises:
            TopologyError: if the node has no LEAF neighbour.
        """
        for neighbor in self._network.neighbors(server):
            if self._network.node(neighbor).kind is NodeKind.LEAF:
                return neighbor
        raise TopologyError(f"node {server!r} is not attached to a leaf")

    def spine_load(self, spine: str) -> int:
        """Number of circuits currently transiting ``spine``."""
        return sum(1 for c in self._circuits if c.spine == spine)

    def _find_shared(self, src_leaf: str, dst_leaf: str, gbps: float) -> Optional[OcsCircuit]:
        for circuit in self._circuits:
            if (
                circuit.src_leaf == src_leaf
                and circuit.dst_leaf == dst_leaf
                and circuit.slots.free_slots()
                and len(circuit.slots.free_slots()) >= circuit.slots.slots_needed(gbps)
            ):
                return circuit
        return None

    def _establish(self, src_leaf: str, dst_leaf: str) -> OcsCircuit:
        # Least-loaded spine first; deterministic tie-break on name.
        for spine in sorted(self._spines, key=lambda s: (self.spine_load(s), s)):
            path = (src_leaf, spine, dst_leaf)
            try:
                channel = self._grid.assign(path)
            except WavelengthError:
                continue
            circuit = OcsCircuit(
                src_leaf=src_leaf,
                dst_leaf=dst_leaf,
                spine=spine,
                channel=channel,
                slots=TimeslotTable(self._slots_per_channel, self._channel_gbps),
            )
            self._circuits.append(circuit)
            return circuit
        raise WavelengthError(
            f"no spine offers a free wavelength from {src_leaf} to {dst_leaf}"
        )

    def connect(self, demand_id: str, src_leaf: str, dst_leaf: str, gbps: float) -> OcsCircuit:
        """Carry a leaf-to-leaf demand, sharing OTS slots when possible.

        Args:
            demand_id: owner tag for exact release.
            src_leaf, dst_leaf: leaf switches (must differ).
            gbps: guaranteed rate requested.

        Returns:
            The circuit carrying the demand.
        """
        if src_leaf == dst_leaf:
            raise ConfigurationError(
                "intra-leaf traffic never enters the optical fabric"
            )
        if gbps <= 0:
            raise ConfigurationError(f"rate must be > 0, got {gbps}")
        if gbps > self._channel_gbps:
            raise CapacityError(
                f"demand {gbps} Gbps exceeds one channel "
                f"({self._channel_gbps} Gbps); split it first"
            )
        circuit = self._find_shared(src_leaf, dst_leaf, gbps)
        if circuit is None:
            circuit = self._establish(src_leaf, dst_leaf)
        circuit.slots.allocate(demand_id, gbps)
        return circuit

    def disconnect(self, demand_id: str) -> int:
        """Release a demand everywhere; tear down drained circuits.

        Returns:
            Number of circuits torn down.
        """
        torn = 0
        for circuit in list(self._circuits):
            circuit.slots.release(demand_id)
            if circuit.slots.utilisation == 0.0:
                self._grid.release(circuit.path, circuit.channel)
                self._circuits.remove(circuit)
                torn += 1
        return torn

    def latency_ms(self, src_leaf: str, dst_leaf: str) -> float:
        """Propagation latency leaf→spine→leaf (spine choice: least-loaded)."""
        spine = min(self._spines, key=lambda s: (self.spine_load(s), s))
        return self._network.edge_latency_ms(src_leaf, spine) + self._network.edge_latency_ms(
            spine, dst_leaf
        )

    @property
    def lit_channels(self) -> int:
        """Number of live OCS circuits (a spectrum-cost proxy)."""
        return len(self._circuits)

"""Traffic grooming: pack sub-wavelength demands onto lightpaths.

The testbed's IP routers groom many small flows onto 100G wavelengths.
:class:`GroomingLayer` reproduces that: a demand between two electrical
nodes first tries an *existing* lightpath with spare capacity between the
same endpoints; only if none fits does it light a new wavelength (routed on
the ROADM-level shortest path, channel chosen by the configured policy,
add/drop ports consumed at both ends).

Releasing a demand tears down lightpaths that become idle, returning their
wavelength and ports — exactly the behaviour that makes bandwidth
"consumed" only while tasks need it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..errors import CapacityError, NoPathError
from ..network import csr
from ..network.graph import Network
from ..network.routing import LatencyWeightSpec
from .lightpath import Lightpath
from .roadm import RoadmPorts
from .wavelength import AssignmentPolicy, WDMGrid


class GroomingLayer:
    """Manages lightpaths over an optical topology and grooms demands.

    Args:
        network: ROADM-level topology lightpaths are routed over.
        grid: the WDM occupancy tracker.
        ports: add/drop port pool (``None`` disables the port constraint).
        policy: wavelength assignment policy for new lightpaths.
        rng: random source for the RANDOM policy.
    """

    def __init__(
        self,
        network: Network,
        grid: WDMGrid,
        *,
        ports: Optional[RoadmPorts] = None,
        policy: AssignmentPolicy = AssignmentPolicy.FIRST_FIT,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._network = network
        self._grid = grid
        self._ports = ports
        self._policy = policy
        self._rng = rng
        self._lightpaths: Dict[int, Lightpath] = {}
        # demand id -> list of lightpath ids carrying it
        self._demand_index: Dict[str, List[int]] = {}

    @property
    def lightpaths(self) -> List[Lightpath]:
        """Live lightpaths in creation order."""
        return list(self._lightpaths.values())

    def lightpath(self, lightpath_id: int) -> Lightpath:
        return self._lightpaths[lightpath_id]

    def find_reusable(self, src: str, dst: str, gbps: float) -> Optional[Lightpath]:
        """An existing ``src -> dst`` lightpath with ``gbps`` spare, if any."""
        for lp in self._lightpaths.values():
            if lp.source == src and lp.destination == dst and lp.residual_gbps >= gbps - 1e-9:
                return lp
        return None

    def _most_spare(self, src: str, dst: str) -> Optional[Lightpath]:
        """The ``src -> dst`` lightpath with the most residual (if any)."""
        best: Optional[Lightpath] = None
        for lp in self._lightpaths.values():
            if lp.source == src and lp.destination == dst and lp.residual_gbps > 1e-9:
                if best is None or lp.residual_gbps > best.residual_gbps:
                    best = lp
        return best

    def establish(
        self, src: str, dst: str, *, path: Optional[Sequence[str]] = None
    ) -> Lightpath:
        """Light a new wavelength from ``src`` to ``dst``.

        Args:
            path: explicit route; defaults to the latency-shortest path.

        Raises:
            NoPathError: no live route from ``src`` to ``dst``.
            WavelengthError: no continuity-feasible channel.
            CapacityError: no free add/drop port at an endpoint.
        """
        if path is None:
            (route,) = csr.shortest_paths_csr(
                self._network, [(src, dst)], LatencyWeightSpec(self._network)
            )
            if isinstance(route, NoPathError):
                raise route
            path = route.nodes
        channel = self._grid.assign(path, self._policy, self._rng)
        lp = Lightpath(
            path=tuple(path), channel=channel, capacity_gbps=self._grid.channel_gbps
        )
        if self._ports is not None:
            try:
                self._ports.attach(src, lp.lightpath_id)
                self._ports.attach(dst, lp.lightpath_id)
            except CapacityError:
                # Roll back: darken the channel and detach any port taken.
                self._grid.release(path, channel)
                try:
                    self._ports.detach(src, lp.lightpath_id)
                except Exception:
                    pass
                raise
        self._lightpaths[lp.lightpath_id] = lp
        return lp

    def teardown(self, lightpath_id: int) -> None:
        """Darken a lightpath and return its ports.

        Raises:
            CapacityError: if demands are still groomed onto it.
        """
        lp = self._lightpaths.get(lightpath_id)
        if lp is None:
            return
        if not lp.is_idle:
            raise CapacityError(
                f"lightpath {lightpath_id} still carries "
                f"{sorted(lp.demands)}; cannot tear down"
            )
        self._grid.release(lp.path, lp.channel)
        if self._ports is not None:
            self._ports.detach(lp.source, lightpath_id)
            self._ports.detach(lp.destination, lightpath_id)
        del self._lightpaths[lightpath_id]

    def groom_demand(self, demand_id: str, src: str, dst: str, gbps: float) -> Lightpath:
        """Place a demand, reusing spare capacity before lighting anew.

        Demands larger than one channel are inverse-multiplexed: split
        across as many lightpaths as needed (spare capacity first, new
        wavelengths after).  On any failure every slice already placed is
        rolled back.

        Returns:
            The lightpath carrying the demand's final slice.
        """
        remaining = gbps
        last: Optional[Lightpath] = None
        placed: List[int] = []
        try:
            while remaining > 1e-9:
                lp = self._most_spare(src, dst)
                if lp is None:
                    lp = self.establish(src, dst)
                slice_gbps = min(remaining, lp.residual_gbps)
                lp.groom(demand_id, slice_gbps)
                placed.append(lp.lightpath_id)
                self._demand_index.setdefault(demand_id, []).append(lp.lightpath_id)
                remaining -= slice_gbps
                last = lp
        except Exception:
            for lp_id in placed:
                lightpath = self._lightpaths.get(lp_id)
                if lightpath is not None:
                    lightpath.remove_demand(demand_id)
                    if lightpath.is_idle:
                        self.teardown(lp_id)
            index = self._demand_index.get(demand_id, [])
            self._demand_index[demand_id] = [
                lp_id for lp_id in index if lp_id not in placed
            ]
            raise
        assert last is not None
        return last

    def release_demand(self, demand_id: str) -> float:
        """Remove a demand everywhere; tear down lightpaths left idle.

        Returns:
            Total rate freed.
        """
        freed = 0.0
        for lp_id in self._demand_index.pop(demand_id, []):
            lp = self._lightpaths.get(lp_id)
            if lp is None:
                continue
            freed += lp.remove_demand(demand_id)
            if lp.is_idle:
                self.teardown(lp_id)
        return freed

    @property
    def lit_wavelength_hops(self) -> int:
        """Total (lightpath hops) summed — a cost proxy for lit spectrum."""
        return sum(lp.hops for lp in self._lightpaths.values())

"""Background-traffic generation over a network."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, NoPathError
from ..network import csr
from ..network.graph import Network
from ..network.node import NodeKind
from ..network.paths import PathResult
from ..network.routing import LatencyWeightSpec
from ..sim.engine import Simulator
from ..sim.process import Process
from ..sim.rng import RandomStreams


@dataclass(frozen=True)
class BackgroundFlow:
    """One injected flow: a rate pinned along a routed path."""

    flow_id: str
    path: Tuple[str, ...]
    rate_gbps: float


class TrafficGenerator:
    """Injects live traffic between router nodes.

    Args:
        network: the data plane to load.
        streams: random source (named stream "traffic").
        rate_gbps: rate of each injected flow.
    """

    def __init__(
        self,
        network: Network,
        streams: Optional[RandomStreams] = None,
        *,
        rate_gbps: float = 5.0,
    ) -> None:
        if not (math.isfinite(rate_gbps) and rate_gbps > 0):
            raise ConfigurationError(
                f"rate must be finite and > 0 Gbps, got {rate_gbps}"
            )
        self._network = network
        self._rng = (streams or RandomStreams(0)).stream("traffic")
        self._rate = rate_gbps
        self._counter = itertools.count()
        self._flows: List[BackgroundFlow] = []
        self._injected = 0

    @property
    def flows(self) -> List[BackgroundFlow]:
        """Currently injected flows."""
        return list(self._flows)

    @property
    def injected_count(self) -> int:
        """Total flows ever injected (departures included)."""
        return self._injected

    def _endpoints(self) -> List[str]:
        routers = self._network.node_names(NodeKind.ROUTER)
        if len(routers) >= 2:
            return routers
        # Fall back to any nodes when the fabric has no ROUTER kind
        # (e.g. spine-leaf uses LEAF).
        leaves = self._network.node_names(NodeKind.LEAF)
        if len(leaves) >= 2:
            return leaves
        return self._network.node_names()

    def _draw(self, endpoints: Sequence[str]) -> Tuple[str, str, str]:
        """One flow's ``(src, dst, flow_id)``; ids are consumed even if blocked."""
        src, dst = self._rng.sample(endpoints, 2)
        return src, dst, f"bg-{next(self._counter)}"

    def _route(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> List[Union[PathResult, NoPathError]]:
        """Latency-shortest paths for every pair, from one weight lowering."""
        return csr.shortest_paths_csr(
            self._network, pairs, LatencyWeightSpec(self._network)
        )

    def _pin(
        self, flow_id: str, route: Union[PathResult, NoPathError]
    ) -> Optional[BackgroundFlow]:
        """Reserve the routed flow at its path's residual, capped at the rate."""
        if isinstance(route, NoPathError):
            return None
        path = route.nodes
        rate = self._rate
        for edge in zip(path, path[1:]):
            rate = min(rate, self._network.residual_gbps(*edge))
        if rate <= 1e-6:
            return None
        self._network.reserve_path(list(path), rate, flow_id)
        flow = BackgroundFlow(flow_id=flow_id, path=path, rate_gbps=rate)
        self._flows.append(flow)
        self._injected += 1
        return flow

    def _inject_one(self) -> Optional[BackgroundFlow]:
        src, dst, flow_id = self._draw(self._endpoints())
        (route,) = self._route([(src, dst)])
        return self._pin(flow_id, route)

    def inject_static(self, n_flows: int) -> List[BackgroundFlow]:
        """Inject up to ``n_flows`` persistent flows (skips blocked pairs).

        Every pair and flow id is drawn first and all pairs are routed
        in one batch, then the flows are reserved in draw order.  That
        equals routing and reserving one flow at a time: latency weights
        read only link latency and failure state, which a reservation
        leaves alone, while each rate still reads the residuals the
        earlier flows left.

        Returns:
            The flows actually injected.
        """
        if n_flows < 0:
            raise ConfigurationError(f"n_flows must be >= 0, got {n_flows}")
        endpoints = self._endpoints()
        draws = [self._draw(endpoints) for _ in range(n_flows)]
        if not draws:
            return []
        version = self._network.topology_version
        routes = self._route([(src, dst) for src, dst, _flow_id in draws])
        injected = []
        for (_src, _dst, flow_id), route in zip(draws, routes):
            flow = self._pin(flow_id, route)
            if flow is not None:
                injected.append(flow)
        assert self._network.topology_version == version, (
            "the topology changed under a batch of routed background flows"
        )
        return injected

    def remove_flow(self, flow_id: str) -> float:
        """Tear down one flow; returns the rate released."""
        self._flows = [f for f in self._flows if f.flow_id != flow_id]
        return self._network.release_owner(flow_id)

    def clear(self) -> float:
        """Tear down every injected flow."""
        released = 0.0
        for flow in list(self._flows):
            released += self.remove_flow(flow.flow_id)
        return released

    def start(
        self,
        sim: Simulator,
        *,
        duration_ms: float,
        mean_interarrival_ms: float = 50.0,
        mean_holding_ms: float = 500.0,
    ) -> Process:
        """Poisson arrivals with exponential holding times on the engine.

        Each arrival injects one flow; a departure event releases it after
        an exponential holding time.
        """
        if mean_interarrival_ms <= 0 or mean_holding_ms <= 0:
            raise ConfigurationError(
                "interarrival and holding means must be > 0"
            )

        def body():
            elapsed = 0.0
            while elapsed < duration_ms:
                gap = self._rng.expovariate(1.0 / mean_interarrival_ms)
                yield gap
                elapsed += gap
                flow = self._inject_one()
                if flow is not None:
                    hold = self._rng.expovariate(1.0 / mean_holding_ms)
                    sim.schedule_in(
                        hold,
                        lambda fid=flow.flow_id: self.remove_flow(fid),
                        name=f"{flow.flow_id}:departure",
                    )

        return Process(sim, body(), name="traffic-generator")

"""Auxiliary-graph construction for the flexible scheduler.

The poster's method: *"We first build auxiliary graphs for broadcast and
upload procedures, respectively.  We initialize each link of the
broadcast/upload graphs according to bandwidth consumption and latency (if
AI tasks pass through the link), and then find MSTs between the global
model and local models."*

Concretely, the auxiliary weight of a directed edge blends three terms:

* **bandwidth cost** — proportional to the rate the task would newly
  consume on that edge.  Edges the task *already* uses (an existing
  reservation under the task's owner tag) are nearly free, which is what
  lets the flexible scheduler reuse established paths;
* **latency cost** — propagation delay of the edge;
* **congestion penalty** — a convex function of current utilisation, which
  steers trees away from edges loaded by background traffic.

Edges without enough residual capacity get infinite weight, so admission
control falls out of the weight function rather than being a separate
filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from .graph import Network
from .paths import WeightFn


@dataclass(frozen=True)
class AuxiliaryWeights:
    """Coefficients of the auxiliary-graph edge weight.

    Attributes:
        alpha_bandwidth: weight of the bandwidth-consumption term.
        beta_latency: weight of the propagation-latency term (per ms).
        gamma_congestion: weight of the utilisation penalty.
        reuse_discount: multiplier applied to the bandwidth term on edges
            where the owner already holds at least the requested rate; a
            small positive value keeps tie-breaking deterministic while
            making reuse strongly preferred.
    """

    alpha_bandwidth: float = 1.0
    beta_latency: float = 1.0
    gamma_congestion: float = 0.5
    reuse_discount: float = 0.01

    def __post_init__(self) -> None:
        for field_name in (
            "alpha_bandwidth",
            "beta_latency",
            "gamma_congestion",
            "reuse_discount",
        ):
            value = getattr(self, field_name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{field_name} must be finite and >= 0, got {value}"
                )


class AuxiliaryGraphBuilder:
    """Builds per-procedure auxiliary weight functions over a network.

    One builder serves both procedures: broadcast weights are evaluated on
    edges oriented *away* from the global node, upload weights on edges
    oriented *towards* it.  The caller supplies the orientation simply by
    the direction in which the path/tree algorithm traverses edges.

    Args:
        network: the live network (reservations included).
        weights: blending coefficients.
        demand_gbps: rate the task will reserve per edge it newly uses.
        owner: the task's reservation tag, used to detect reusable edges.
    """

    def __init__(
        self,
        network: Network,
        *,
        demand_gbps: float,
        owner: str = "",
        weights: Optional[AuxiliaryWeights] = None,
    ) -> None:
        if not 0 < demand_gbps < math.inf:
            raise ConfigurationError(
                f"demand must be finite and > 0 Gbps, got {demand_gbps}"
            )
        self._network = network
        self._demand = demand_gbps
        self._owner = owner
        self._weights = weights or AuxiliaryWeights()

    @property
    def weights(self) -> AuxiliaryWeights:
        return self._weights

    def edge_weight(self, src: str, dst: str) -> float:
        """Auxiliary weight of the directed edge ``src -> dst``.

        Returns ``math.inf`` when the edge cannot newly carry the demand
        and is not already reserved by the owner.
        """
        link = self._network.link(src, dst)
        if link.failed:
            return math.inf
        w = self._weights
        already = (
            self._owner != ""
            and link.owner_gbps(src, dst, self._owner) >= self._demand - 1e-9
        )
        residual = link.residual_gbps(src, dst)
        if not already and residual + 1e-9 < self._demand:
            return math.inf

        # Bandwidth term: normalised demand, discounted on reusable edges.
        bandwidth_cost = self._demand / link.capacity_gbps
        if already:
            bandwidth_cost *= w.reuse_discount

        latency_cost = link.latency_ms

        utilisation = link.utilisation(src, dst)
        congestion_cost = (utilisation / (1.0 - utilisation)) if utilisation < 1.0 else 1e9

        return (
            w.alpha_bandwidth * bandwidth_cost
            + w.beta_latency * latency_cost
            + w.gamma_congestion * congestion_cost
        )

    def weight_fn(self) -> WeightFn:
        """The weight function in the form path algorithms expect."""
        return self.edge_weight

    # ------------------------------------------------------------------
    # PathCache weight-spec protocol (see repro.network.routing)
    # ------------------------------------------------------------------
    def cache_token(self) -> object:
        """Hashable identity of this weight function's *semantics*.

        Two builders with the same token evaluate identically on any
        link state, which is what lets the routing cache share entries
        between them.  The owner is part of the weight (reuse discounts,
        admission bypass), so it lands in the token — *except* when the
        owner currently holds nothing anywhere, where every such builder
        degenerates to the same owner-free weight and the token says so
        (``None``).  That is the common case: each new task's first tree
        is built before it has reserved a single edge, so fresh tasks
        with equal demand share cached shortest-path state.
        """
        owner: "str | None" = self._owner or None
        if owner is not None and not self._network.has_reservations(owner):
            owner = None
        w = self._weights
        return (
            "aux",
            self._demand,
            owner,
            w.alpha_bandwidth,
            w.beta_latency,
            w.gamma_congestion,
            w.reuse_discount,
        )

    def shareable(self) -> bool:
        """Whether cached results under this weight can ever be re-used.

        Owner-specific weights (the owner already holds capacity) carry
        a token no other builder will produce — each task id schedules
        at most one tree per procedure — so caching their results would
        only pollute the LRU.  The routing cache skips storage for them.
        """
        return (
            self._owner == ""
            or not self._network.has_reservations(self._owner)
        )

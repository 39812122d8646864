"""Capacitated, bidirectional fibre links with per-direction reservations.

A :class:`Link` joins two nodes and offers ``capacity_gbps`` independently
in each direction (as a fibre pair does).  Consumers reserve rate under an
*owner* tag — a task id, a background-traffic flow id — so releases are
exact and leak-free: releasing an owner returns precisely what that owner
reserved, and the invariant ``used <= capacity`` holds at all times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..errors import CapacityError, ConfigurationError
from ..units import propagation_ms


@dataclass(frozen=True)
class Reservation:
    """A single owner's reserved rate on one direction of a link."""

    owner: str
    gbps: float


class ReservationRegistry:
    """Which links each owner holds reservations on.

    :class:`~repro.network.graph.Network` owns one and attaches it to
    every link it creates; each link reports its reservation changes
    here, so owner-scoped work (``has_reservations``, ``release_owner``,
    the auxiliary weight lowering) touches only the links an owner
    actually holds.
    """

    __slots__ = ("_by_owner",)

    def __init__(self) -> None:
        # owner -> the links it holds (dict as an ordered set).
        self._by_owner: "Dict[str, Dict[Link, None]]" = {}

    def holds_anywhere(self, owner: str) -> bool:
        return owner in self._by_owner

    def links_of(self, owner: str) -> "list[Link]":
        """The links ``owner`` holds, in the order it first reserved them."""
        return list(self._by_owner.get(owner, ()))

    def add(self, link: "Link", owner: str) -> None:
        held = self._by_owner.get(owner)
        if held is None:
            held = self._by_owner[owner] = {}
        held[link] = None

    def discard(self, link: "Link", owner: str) -> None:
        """``owner`` no longer holds anything on ``link``."""
        held = self._by_owner.get(owner)
        if held is not None:
            held.pop(link, None)
            if not held:
                del self._by_owner[owner]


class MutationEpoch:
    """A shared monotone counter of network mutations.

    :class:`~repro.network.graph.Network` hands one instance to every
    link it owns, so any state change anywhere in the topology —
    reservation, release, failure, repair — advances a single epoch the
    routing cache (:mod:`repro.network.routing`) can compare against for
    a cheap "nothing changed at all" fast path.  Links built standalone
    get a private epoch, keeping :class:`Link` usable on its own.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


class Link:
    """An undirected physical link with independent per-direction capacity.

    Args:
        u, v: endpoint node names (order defines the "forward" direction
            only for bookkeeping; both directions behave identically).
        capacity_gbps: usable rate per direction.
        distance_km: fibre length; drives propagation latency unless
            ``latency_ms`` is given explicitly.
        latency_ms: explicit one-way propagation latency override.
    """

    def __init__(
        self,
        u: str,
        v: str,
        capacity_gbps: float,
        *,
        distance_km: float = 10.0,
        latency_ms: "float | None" = None,
    ) -> None:
        if u == v:
            raise ConfigurationError(f"self-loop link at {u!r} is not allowed")
        if not (math.isfinite(capacity_gbps) and capacity_gbps > 0):
            raise ConfigurationError(
                f"link {u}-{v}: capacity must be finite and > 0 Gbps, "
                f"got {capacity_gbps}"
            )
        if not (math.isfinite(distance_km) and distance_km >= 0):
            raise ConfigurationError(
                f"link {u}-{v}: distance must be finite and >= 0 km, "
                f"got {distance_km}"
            )
        self.u = u
        self.v = v
        self._forced_failed = False
        self._endpoints_down = 0
        self._generation = 0
        # Observer set owned by an attached CSR snapshot (see
        # repro.network.csr.snapshot): mutated links add themselves so the
        # snapshot can refresh only the touched overlay rows.
        self._dirty: "set | None" = None
        # Registry owned by the containing Network: reservation changes
        # are reported to it so owner scans touch only held links.
        self._reserved_reg: "ReservationRegistry | None" = None
        # Position in the containing Network's link insertion order.
        self._ordinal = 0
        self._epoch = MutationEpoch()
        self._capacity_gbps = float(capacity_gbps)
        self.distance_km = float(distance_km)
        self._latency_ms = (
            float(latency_ms) if latency_ms is not None else propagation_ms(distance_km)
        )
        if not (math.isfinite(self._latency_ms) and self._latency_ms >= 0):
            raise ConfigurationError(
                f"link {u}-{v}: latency must be finite and >= 0 ms, "
                f"got {self._latency_ms}"
            )
        # direction key -> owner -> reserved gbps
        self._reservations: Dict[Tuple[str, str], Dict[str, float]] = {
            (u, v): {},
            (v, u): {},
        }

    @property
    def latency_ms(self) -> float:
        """One-way propagation latency."""
        return self._latency_ms

    @property
    def capacity_gbps(self) -> float:
        """Usable rate per direction.

        Writable — partial-degradation scenarios may shrink a live
        link — and every change bumps the generation, since capacity
        feeds residuals, utilisation, and admission in every cached
        weight function.
        """
        return self._capacity_gbps

    @capacity_gbps.setter
    def capacity_gbps(self, value: float) -> None:
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"link {self.u}-{self.v}: capacity must be finite and > 0 Gbps, "
                f"got {value}"
            )
        if value != self._capacity_gbps:
            self._capacity_gbps = value
            self._bump()

    @property
    def generation(self) -> int:
        """Monotone counter of this link's state changes.

        Bumped on every reservation, release, failure, or repair that
        actually alters the link, together with the shared network
        epoch the routing cache compares against.
        """
        return self._generation

    def _bump(self) -> None:
        """Record a mutation of this link's state."""
        self._generation += 1
        self._epoch.bump()
        dirty = self._dirty
        if dirty is not None:
            dirty.add(self)

    @property
    def failed(self) -> bool:
        """Whether the link is out of service.

        True when the span itself was failed *or* an endpoint node is
        down (a link cannot carry traffic into a dead device).  The two
        causes are tracked separately so overlapping faults compose: a
        span failure during a node outage survives the node's repair.
        """
        return self._forced_failed or self._endpoints_down > 0

    @failed.setter
    def failed(self, value: bool) -> None:
        """Set the span's own failure state (endpoint state is untouched)."""
        value = bool(value)
        if value != self._forced_failed:
            self._forced_failed = value
            self._bump()

    def mark_endpoint_down(self) -> None:
        """Record one endpoint node going down (counted, not idempotent)."""
        self._endpoints_down += 1
        self._bump()

    def mark_endpoint_up(self) -> None:
        """Record one endpoint node coming back."""
        if self._endpoints_down <= 0:
            raise ConfigurationError(
                f"link {self.u}-{self.v}: endpoint repaired while none down"
            )
        self._endpoints_down -= 1
        self._bump()

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The two endpoint names in construction order."""
        return (self.u, self.v)

    def _direction(self, src: str, dst: str) -> Tuple[str, str]:
        if (src, dst) not in self._reservations:
            raise ConfigurationError(
                f"link {self.u}-{self.v} has no direction {src}->{dst}"
            )
        return (src, dst)

    def used_gbps(self, src: str, dst: str) -> float:
        """Total reserved rate in the ``src -> dst`` direction."""
        return sum(self._reservations[self._direction(src, dst)].values())

    def residual_gbps(self, src: str, dst: str) -> float:
        """Free rate in the ``src -> dst`` direction."""
        return self.capacity_gbps - self.used_gbps(src, dst)

    def utilisation(self, src: str, dst: str) -> float:
        """Fraction of capacity in use in the ``src -> dst`` direction."""
        return self.used_gbps(src, dst) / self.capacity_gbps

    def owner_gbps(self, src: str, dst: str, owner: str) -> float:
        """Rate currently reserved by ``owner`` in that direction."""
        return self._reservations[self._direction(src, dst)].get(owner, 0.0)

    def holds(self, owner: str) -> bool:
        """True when ``owner`` has a reservation in either direction."""
        return any(owner in bucket for bucket in self._reservations.values())

    def reserve(self, src: str, dst: str, gbps: float, owner: str) -> None:
        """Reserve ``gbps`` for ``owner`` in the ``src -> dst`` direction.

        Repeated reservations by the same owner accumulate.

        Raises:
            ConfigurationError: if ``gbps`` is not finite and positive.
            CapacityError: if the reservation would exceed capacity.
        """
        if not (math.isfinite(gbps) and gbps > 0):
            raise ConfigurationError(
                f"reservation must be finite and > 0 Gbps, got {gbps}"
            )
        if self.failed:
            raise CapacityError(
                f"link {self.u}-{self.v} is failed; cannot reserve"
            )
        direction = self._direction(src, dst)
        if self.used_gbps(src, dst) + gbps > self.capacity_gbps + 1e-9:
            raise CapacityError(
                f"link {src}->{dst}: cannot reserve {gbps} Gbps for {owner!r}; "
                f"{self.residual_gbps(src, dst):.3f} Gbps free of "
                f"{self.capacity_gbps} Gbps"
            )
        bucket = self._reservations[direction]
        bucket[owner] = bucket.get(owner, 0.0) + gbps
        reg = self._reserved_reg
        if reg is not None:
            reg.add(self, owner)
        self._bump()

    def release(self, src: str, dst: str, owner: str) -> float:
        """Release everything ``owner`` holds in that direction.

        Returns:
            The rate released (0.0 if the owner held nothing).
        """
        direction = self._direction(src, dst)
        released = self._reservations[direction].pop(owner, 0.0)
        if released:
            reg = self._reserved_reg
            if reg is not None and not self.holds(owner):
                reg.discard(self, owner)
            self._bump()
        return released

    def release_owner(self, owner: str) -> float:
        """Release the owner's reservations in *both* directions."""
        total = 0.0
        for direction in list(self._reservations):
            released = self._reservations[direction].pop(owner, 0.0)
            if released:
                total += released
                self._bump()
        if total:
            reg = self._reserved_reg
            if reg is not None:
                reg.discard(self, owner)
        return total

    def reservations(self, src: str, dst: str) -> Iterator[Reservation]:
        """Iterate the live reservations in one direction."""
        for owner, gbps in sorted(self._reservations[self._direction(src, dst)].items()):
            yield Reservation(owner=owner, gbps=gbps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.u!r}, {self.v!r}, capacity={self.capacity_gbps} Gbps, "
            f"distance={self.distance_km} km)"
        )

"""Capacitated, bidirectional fibre links and the ledger that holds their state.

A :class:`Link` joins two nodes and offers ``capacity_gbps`` independently
in each direction (as a fibre pair does).  Consumers reserve rate under an
*owner* tag — a task id, a background-traffic flow id — so releases are
exact and leak-free: releasing an owner returns precisely what that owner
reserved, and the invariant ``used <= capacity`` holds at all times.

Link state lives in one :class:`LinkLedger` per network.  A link keeps
its per-direction owner buckets and, after each mutation of a direction,
writes that direction's ledger slot as one ``sum()`` of the bucket in
insertion order: the same float a fresh sum of the bucket gives.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..errors import CapacityError, ConfigurationError
from ..units import propagation_ms


@dataclass(frozen=True)
class Reservation:
    """A single owner's reserved rate on one direction of a link."""

    owner: str
    gbps: float


class LinkLedger:
    """The link state of one network: epoch, owner registry, and slots.

    Slot ``2·ordinal`` of ``used``/``capacity``/``failed`` is a link's
    ``u -> v`` direction and ``2·ordinal + 1`` its ``v -> u``.  The
    slots are :class:`array.array` buffers: links read and write Python
    floats, the CSR snapshot gathers them through a numpy view, and
    ``attach`` grows them amortised.  ``epoch`` counts mutations (and
    topology growth); two equal epochs mean no slot changed.
    """

    __slots__ = ("epoch", "used", "capacity", "failed", "_held")

    def __init__(self) -> None:
        self.epoch = 0
        self.used = array("d")
        self.capacity = array("d")
        self.failed = array("b")
        # owner -> the links it holds (dict as an ordered set).
        self._held: "Dict[str, Dict[Link, None]]" = {}

    def attach(self, capacity_gbps: float) -> int:
        """Open a new link's two slots; returns the ``u -> v`` slot."""
        slot = len(self.used)
        self.used.extend((0.0, 0.0))
        self.capacity.extend((capacity_gbps, capacity_gbps))
        self.failed.extend((0, 0))
        return slot

    def copy_from(self, source: "LinkLedger", twins: "Dict[Link, Link]") -> None:
        """Take ``source``'s epoch, slots and registry, naming ``twins``' links.

        ``twins`` maps each of ``source``'s links to its copy on this
        ledger; the registry keeps every owner's first-reserved order.
        """
        self.epoch = source.epoch
        self.used = source.used[:]
        self.capacity = source.capacity[:]
        self.failed = source.failed[:]
        self._held = {
            owner: {twins[link]: None for link in held}
            for owner, held in source._held.items()
        }

    def holds_anywhere(self, owner: str) -> bool:
        return owner in self._held

    def links_of(self, owner: str) -> "list[Link]":
        """The links ``owner`` holds, in the order it first reserved them."""
        return list(self._held.get(owner, ()))

    def add(self, link: "Link", owner: str) -> None:
        """``owner`` holds something on ``link``."""
        self._held.setdefault(owner, {})[link] = None

    def discard(self, link: "Link", owner: str) -> None:
        """``owner`` no longer holds anything on ``link``."""
        held = self._held.get(owner)
        if held is not None:
            held.pop(link, None)
            if not held:
                del self._held[owner]


class Link:
    """An undirected physical link with independent per-direction capacity.

    Args:
        u, v: endpoint node names (order defines the "forward" direction
            only for bookkeeping; both directions behave identically).
        capacity_gbps: usable rate per direction.
        distance_km: fibre length; drives propagation latency unless
            ``latency_ms`` is given explicitly.
        latency_ms: explicit one-way propagation latency override.
        ledger: the network's ledger (a standalone link gets its own).
    """

    def __init__(
        self,
        u: str,
        v: str,
        capacity_gbps: float,
        *,
        distance_km: float = 10.0,
        latency_ms: "float | None" = None,
        ledger: "LinkLedger | None" = None,
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
        self.distance_km = float(distance_km)
        self._latency_ms = (
            float(latency_ms) if latency_ms is not None else propagation_ms(distance_km)
        )
        if not (math.isfinite(self._latency_ms) and self._latency_ms >= 0):
            raise ConfigurationError(
                f"link {u}-{v}: latency must be finite and >= 0 ms, "
                f"got {self._latency_ms}"
            )
        # Per direction (0: u -> v, 1: v -> u): owner -> reserved gbps.
        self._buckets: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})
        self.ledger = ledger if ledger is not None else LinkLedger()
        # The u -> v slot; v -> u is the next one.
        self._slot = self.ledger.attach(float(capacity_gbps))

    def clone(self, ledger: LinkLedger) -> "Link":
        """This link on ``ledger``, a copy of its own ledger's slots.

        The owner buckets are copied in insertion order, so each slot
        sums as before.  Attributes are assigned in ``__init__``'s order:
        the copy keeps the instance layout every other link shares.
        """
        twin = Link.__new__(Link)
        twin.u = self.u
        twin.v = self.v
        twin._forced_failed = self._forced_failed
        twin._endpoints_down = self._endpoints_down
        twin.distance_km = self.distance_km
        twin._latency_ms = self._latency_ms
        forward, backward = self._buckets
        twin._buckets = (dict(forward), dict(backward))
        twin.ledger = ledger
        twin._slot = self._slot
        return twin

    @property
    def latency_ms(self) -> float:
        """One-way propagation latency."""
        return self._latency_ms

    @property
    def capacity_gbps(self) -> float:
        """Usable rate per direction.

        Writable — partial-degradation scenarios may shrink a live
        link — and every change advances the ledger epoch, since
        capacity feeds residuals, utilisation, and admission in every
        cached weight function.
        """
        return self.ledger.capacity[self._slot]

    @capacity_gbps.setter
    def capacity_gbps(self, value: float) -> None:
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"link {self.u}-{self.v}: capacity must be finite and > 0 Gbps, "
                f"got {value}"
            )
        ledger = self.ledger
        slot = self._slot
        if value != ledger.capacity[slot]:
            ledger.capacity[slot] = ledger.capacity[slot + 1] = value
            ledger.epoch += 1

    @property
    def failed(self) -> bool:
        """Whether the link is out of service.

        True when the span itself was failed *or* an endpoint node is
        down (a link cannot carry traffic into a dead device).  The two
        causes are tracked separately so overlapping faults compose: a
        span failure during a node outage survives the node's repair.
        """
        return self.ledger.failed[self._slot] != 0

    @failed.setter
    def failed(self, value: bool) -> None:
        """Set the span's own failure state (endpoint state is untouched)."""
        value = bool(value)
        if value != self._forced_failed:
            self._forced_failed = value
            self._write_failed()

    def mark_endpoint_down(self) -> None:
        """Record one endpoint node going down (counted, not idempotent)."""
        self._endpoints_down += 1
        self._write_failed()

    def mark_endpoint_up(self) -> None:
        """Record one endpoint node coming back."""
        if self._endpoints_down <= 0:
            raise ConfigurationError(
                f"link {self.u}-{self.v}: endpoint repaired while none down"
            )
        self._endpoints_down -= 1
        self._write_failed()

    def _write_failed(self) -> None:
        """Write both failed slots from the two causes."""
        down = self._forced_failed or self._endpoints_down > 0
        ledger = self.ledger
        slot = self._slot
        ledger.failed[slot] = ledger.failed[slot + 1] = down
        ledger.epoch += 1

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The two endpoint names in construction order."""
        return (self.u, self.v)

    def _direction(self, src: str, dst: str) -> int:
        """0 for ``u -> v``, 1 for ``v -> u``."""
        if src == self.u and dst == self.v:
            return 0
        if src == self.v and dst == self.u:
            return 1
        raise ConfigurationError(
            f"link {self.u}-{self.v} has no direction {src}->{dst}"
        )

    def slot(self, src: str, dst: str) -> int:
        """The ledger slot of the ``src -> dst`` direction."""
        return self._slot + self._direction(src, dst)

    def used_gbps(self, src: str, dst: str) -> float:
        """Total reserved rate in the ``src -> dst`` direction."""
        return self.ledger.used[self._slot + self._direction(src, dst)]

    def residual_gbps(self, src: str, dst: str) -> float:
        """Free rate in the ``src -> dst`` direction."""
        return self.capacity_gbps - self.used_gbps(src, dst)

    def utilisation(self, src: str, dst: str) -> float:
        """Fraction of capacity in use in the ``src -> dst`` direction."""
        return self.used_gbps(src, dst) / self.capacity_gbps

    def owner_gbps(self, src: str, dst: str, owner: str) -> float:
        """Rate currently reserved by ``owner`` in that direction."""
        return self._buckets[self._direction(src, dst)].get(owner, 0.0)

    def owners(self) -> "set[str]":
        """Every owner with a reservation in either direction."""
        forward, backward = self._buckets
        return forward.keys() | backward.keys()

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
        ledger = self.ledger
        slot = self._slot + direction
        used = ledger.used[slot]
        capacity = ledger.capacity[slot]
        if used + gbps > capacity + 1e-9:
            raise CapacityError(
                f"link {src}->{dst}: cannot reserve {gbps} Gbps for {owner!r}; "
                f"{capacity - used:.3f} Gbps free of {capacity} Gbps"
            )
        bucket = self._buckets[direction]
        bucket[owner] = bucket.get(owner, 0.0) + gbps
        ledger.used[slot] = sum(bucket.values())
        ledger.add(self, owner)
        ledger.epoch += 1

    def release(self, src: str, dst: str, owner: str) -> float:
        """Release everything ``owner`` holds in that direction.

        Returns:
            The rate released (0.0 if the owner held nothing).
        """
        direction = self._direction(src, dst)
        bucket = self._buckets[direction]
        released = bucket.pop(owner, 0.0)
        if released:
            ledger = self.ledger
            ledger.used[self._slot + direction] = sum(bucket.values())
            if owner not in self._buckets[1 - direction]:
                ledger.discard(self, owner)
            ledger.epoch += 1
        return released

    def restore_owner_gbps(self, src: str, dst: str, owner: str, gbps: float) -> None:
        """Undo reservations made since ``owner`` held ``gbps`` there.

        The owner keeps its bucket position, so the slot sums as before.
        """
        if not gbps:
            self.release(src, dst, owner)
            return
        direction = self._direction(src, dst)
        bucket = self._buckets[direction]
        bucket[owner] = gbps
        self.ledger.used[self._slot + direction] = sum(bucket.values())
        self.ledger.epoch += 1

    def release_owner(self, owner: str) -> float:
        """Release the owner's reservations in *both* directions."""
        ledger = self.ledger
        total = 0.0
        for direction, bucket in enumerate(self._buckets):
            released = bucket.pop(owner, 0.0)
            if released:
                total += released
                ledger.used[self._slot + direction] = sum(bucket.values())
                ledger.epoch += 1
        if total:
            ledger.discard(self, owner)
        return total

    def reservations(self, src: str, dst: str) -> Iterator[Reservation]:
        """Iterate the live reservations in one direction."""
        for owner, gbps in sorted(self._buckets[self._direction(src, dst)].items()):
            yield Reservation(owner=owner, gbps=gbps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.u!r}, {self.v!r}, capacity={self.capacity_gbps} Gbps, "
            f"distance={self.distance_km} km)"
        )

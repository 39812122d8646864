"""WDM channel occupancy and wavelength assignment.

A :class:`WDMGrid` tracks, for every link of a network, which of the ``W``
wavelength channels are lit.  :meth:`WDMGrid.assign` implements routing-
independent wavelength assignment over a given path under the
*wavelength-continuity constraint* (the same channel index must be free on
every hop, as in a transparent optical network without converters).

Three policies are provided; the paper's baseline uses **first-fit**.
"""

from __future__ import annotations

import enum
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError, WavelengthError
from ..network.graph import Network


class AssignmentPolicy(enum.Enum):
    """Wavelength selection rule among the channels free on every hop."""

    FIRST_FIT = "first-fit"
    RANDOM = "random"
    MOST_USED = "most-used"


class WDMGrid:
    """Per-link wavelength occupancy for a network.

    Args:
        network: topology whose links carry the WDM grid.
        n_wavelengths: channels per link (both directions share a channel,
            as with a fibre pair carrying the same grid each way).
        channel_gbps: capacity of one lit channel.
    """

    def __init__(
        self,
        network: Network,
        n_wavelengths: int = 40,
        channel_gbps: float = 100.0,
    ) -> None:
        if n_wavelengths < 1:
            raise ConfigurationError(
                f"n_wavelengths must be >= 1, got {n_wavelengths}"
            )
        if channel_gbps <= 0:
            raise ConfigurationError(
                f"channel_gbps must be > 0, got {channel_gbps}"
            )
        self._network = network
        self.n_wavelengths = n_wavelengths
        self.channel_gbps = channel_gbps
        # link key -> set of occupied channel indices
        self._occupied: Dict[Tuple[str, str], Set[int]] = {}

    def _key(self, u: str, v: str) -> Tuple[str, str]:
        self._network.link(u, v)  # validates the link exists
        return (u, v) if u <= v else (v, u)

    def occupied(self, u: str, v: str) -> Set[int]:
        """Channel indices lit on the link ``{u, v}``."""
        return set(self._occupied.get(self._key(u, v), set()))

    def usage_count(self, channel: int) -> int:
        """How many links currently light ``channel`` (for most-used)."""
        return sum(1 for taken in self._occupied.values() if channel in taken)

    def common_free_channels(self, path: Sequence[str]) -> List[int]:
        """Channels free on *every* hop of ``path`` (continuity constraint)."""
        channels: Set[int] = set(range(self.n_wavelengths))
        for u, v in zip(path, path[1:]):
            taken = self._occupied.get(self._key(u, v), set())
            channels -= taken
            if not channels:
                break
        return sorted(channels)

    def assign(
        self,
        path: Sequence[str],
        policy: AssignmentPolicy = AssignmentPolicy.FIRST_FIT,
        rng: Optional[random.Random] = None,
    ) -> int:
        """Pick and light a wavelength along ``path``.

        Args:
            path: node sequence; needs >= 2 nodes.
            policy: selection rule among continuity-feasible channels.
            rng: required for :attr:`AssignmentPolicy.RANDOM`.

        Returns:
            The channel index assigned.

        Raises:
            WavelengthError: when no channel is free on every hop.
        """
        if len(path) < 2:
            raise ConfigurationError("a lightpath needs at least two nodes")
        candidates = self.common_free_channels(path)
        if not candidates:
            raise WavelengthError(
                f"no common free wavelength on path {'-'.join(path)}"
            )
        if policy is AssignmentPolicy.FIRST_FIT:
            channel = candidates[0]
        elif policy is AssignmentPolicy.RANDOM:
            if rng is None:
                raise ConfigurationError("RANDOM policy requires an rng")
            channel = rng.choice(candidates)
        elif policy is AssignmentPolicy.MOST_USED:
            channel = max(candidates, key=lambda c: (self.usage_count(c), -c))
        else:  # pragma: no cover - exhaustive enum
            raise ConfigurationError(f"unknown policy {policy}")
        self._light(path, channel)
        return channel

    def _light(self, path: Sequence[str], channel: int) -> None:
        for u, v in zip(path, path[1:]):
            key = self._key(u, v)
            taken = self._occupied.setdefault(key, set())
            if channel in taken:
                raise WavelengthError(
                    f"channel {channel} already lit on {u}-{v}"
                )
            taken.add(channel)

    def release(self, path: Sequence[str], channel: int) -> None:
        """Darken ``channel`` on every hop of ``path``.

        Raises:
            WavelengthError: if the channel is not lit on some hop.
        """
        for u, v in zip(path, path[1:]):
            key = self._key(u, v)
            taken = self._occupied.get(key, set())
            if channel not in taken:
                raise WavelengthError(
                    f"channel {channel} not lit on {u}-{v}; cannot release"
                )
        for u, v in zip(path, path[1:]):
            self._occupied[self._key(u, v)].discard(channel)

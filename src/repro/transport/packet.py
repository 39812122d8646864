"""Packetisation arithmetic shared by the protocol models."""

from __future__ import annotations

import math

from ..errors import ConfigurationError, TransportError
from ..units import BYTES_PER_MEGABIT


class Packetiser:
    """Split a payload into MTU-sized packets and account header bytes.

    Args:
        mtu_bytes: maximum transmission unit on the wire.
        header_bytes: per-packet header+trailer overhead (e.g. 40 for
            IPv4+TCP without options, 58 for RoCEv2 framing).
    """

    def __init__(self, mtu_bytes: int = 1500, header_bytes: int = 40) -> None:
        if mtu_bytes <= 0:
            raise ConfigurationError(f"mtu must be > 0 bytes, got {mtu_bytes}")
        if header_bytes < 0:
            raise ConfigurationError(
                f"header_bytes must be >= 0, got {header_bytes}"
            )
        if header_bytes >= mtu_bytes:
            raise ConfigurationError(
                f"headers ({header_bytes} B) must be smaller than the MTU "
                f"({mtu_bytes} B)"
            )
        self.mtu_bytes = mtu_bytes
        self.header_bytes = header_bytes

    @property
    def payload_bytes(self) -> int:
        """Payload carried by one full packet."""
        return self.mtu_bytes - self.header_bytes

    @property
    def goodput_ratio(self) -> float:
        """Fraction of wire bits that are payload."""
        return self.payload_bytes / self.mtu_bytes

    def packets_for(self, size_mb: float) -> int:
        """Number of packets to carry ``size_mb`` megabits of payload."""
        if size_mb < 0:
            raise TransportError(f"size must be >= 0 Mb, got {size_mb}")
        payload_bytes = size_mb * BYTES_PER_MEGABIT
        return int(math.ceil(payload_bytes / self.payload_bytes)) if payload_bytes else 0

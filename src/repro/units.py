"""Unit conventions and conversion helpers.

The whole library uses one coherent unit system so that quantities can be
combined without conversion mistakes:

* **time** — milliseconds (ms)
* **data size** — megabits (Mb)
* **bandwidth / rate** — gigabits per second (Gbps)
* **distance** — kilometres (km)
* **compute** — GFLOPs of work, GFLOPS of speed

A transfer of ``size`` Mb at ``rate`` Gbps therefore takes
``size / rate`` milliseconds (1 Gbps == 1 Mb/ms), which keeps the
arithmetic inside schedulers readable.  Propagation delay over fibre uses
the usual 5 us/km rule of thumb.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Speed of light in fibre gives roughly 5 microseconds per kilometre.
FIBRE_DELAY_MS_PER_KM = 0.005

#: Bytes-per-megabit conversion constant.
BYTES_PER_MEGABIT = 125_000.0


def megabits_from_bytes(n_bytes: float) -> float:
    """Convert a byte count to megabits."""
    if n_bytes < 0:
        raise ConfigurationError(f"byte count must be >= 0, got {n_bytes}")
    return n_bytes / BYTES_PER_MEGABIT


def megabits_from_parameters(n_parameters: float, bytes_per_parameter: float = 4.0) -> float:
    """Size in megabits of a model with ``n_parameters`` weights.

    Args:
        n_parameters: number of trainable parameters.
        bytes_per_parameter: encoding width; 4 for float32, 2 for float16.
    """
    if n_parameters < 0:
        raise ConfigurationError(f"parameter count must be >= 0, got {n_parameters}")
    if bytes_per_parameter <= 0:
        raise ConfigurationError(
            f"bytes_per_parameter must be > 0, got {bytes_per_parameter}"
        )
    return megabits_from_bytes(n_parameters * bytes_per_parameter)


def propagation_ms(distance_km: float) -> float:
    """Propagation delay, in ms, over ``distance_km`` of fibre."""
    if distance_km < 0:
        raise ConfigurationError(f"distance must be >= 0 km, got {distance_km}")
    return distance_km * FIBRE_DELAY_MS_PER_KM

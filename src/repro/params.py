"""Shared override-coercion policy for parameterized registries.

Both the scenario registry (:mod:`repro.scenarios.spec`) and the
topology-family registry (:mod:`repro.network.topology.family`) accept
user overrides against a dict of typed defaults.  The coercion rules —
numeric defaults accept any number but never bools, integer defaults
accept integral floats, other defaults require their own type — are one
policy implemented once here, so the two layers can never drift apart
on what the same override value means.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .errors import ConfigurationError


def coerce_override(
    value: Any,
    default: Any,
    *,
    where: str,
    maximum: Optional[float] = None,
) -> Any:
    """Coerce ``value`` against its ``default``'s type, then its bound.

    Rules:

    * numeric (non-bool int/float) defaults accept any number; an
      integer default additionally accepts only integral floats, which
      are converted to int;
    * a ``None`` default documents an optional *numeric* knob: ``None``
      and numbers pass, anything else is rejected (so a bad override
      fails here with a clean error instead of deep in a builder);
    * any other default requires an instance of its own type;
    * a number must be finite: NaN and ±inf are rejected, since no
      parameter means anything at either and they would flow silently
      into rows, and so is an integer too large for a float, which
      would overflow the first float arithmetic that reads it;
    * a number must not exceed ``maximum`` when one is given, so that a
      size is refused before anything is built from it (the bound reads
      numbers only).

    Args:
        value: the user-supplied override.
        default: the schema default it replaces.
        where: message prefix, e.g. ``"scenario 'x': parameter 'y'"``.
        maximum: inclusive upper bound for a numeric value.

    Raises:
        ConfigurationError: on any mismatch.
    """
    if isinstance(value, (int, float)) and not _finite(value):
        raise ConfigurationError(f"{where} must be finite, got {value!r}")
    if default is None:
        if value is None:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{where} expects a number or None, got {value!r}"
            )
    elif isinstance(default, (int, float)) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{where} expects a number, got {value!r}")
        if isinstance(default, int) and isinstance(value, float):
            if not value.is_integer():
                raise ConfigurationError(
                    f"{where} expects an integer, got {value!r}"
                )
            value = int(value)
    elif not isinstance(value, type(default)):
        raise ConfigurationError(
            f"{where} expects {type(default).__name__}, got {value!r}"
        )
    if maximum is not None and isinstance(value, (int, float)) and value > maximum:
        raise ConfigurationError(f"{where} must be <= {maximum}, got {value!r}")
    return value


def _finite(value: float) -> bool:
    """``math.isfinite``, false for an int beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False

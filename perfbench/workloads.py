"""The benchmark's workloads: which sweep each round of a run plays.

Parameters come from ``rationale.json`` next to this file, so the
recorded rationale and the generated inputs cannot drift apart.  Round
``i`` of seed ``s`` draws its sweep seeds from ``s * 1000 + i`` (times
``seeds_per_round``), so the same seed always yields the same inputs.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError
from repro.scenarios import get_scenario, register
from repro.scenarios.sweep.engine import SweepConfig

RATIONALE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rationale.json")


def load_rationale() -> Dict[str, Any]:
    with open(RATIONALE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """One named workload; :meth:`round_config` gives round ``i``'s sweep."""

    def __init__(self, name: str, seed: int) -> None:
        workloads = load_rationale()["workloads"]
        if name not in workloads:
            raise ConfigurationError(
                f"unknown workload {name!r}; choose from {', '.join(workloads)}"
            )
        self.name = name
        self.seed = seed
        self.entry = workloads[name]
        self._scenarios, self._grid = self._prepare()

    def _prepare(self) -> Tuple[Tuple[str, ...], Dict[str, list]]:
        """Validate the entry; return the round's scenarios and grid."""
        entry = self.entry
        params = entry["params"]
        if "scenarios" in entry:
            for name in entry["scenarios"]:
                spec = get_scenario(name)
                if spec.serve == "campaign" or spec.fault_profile is not None:
                    raise ConfigurationError(
                        f"{self.name}: scenario {name!r} is no longer "
                        "protocol-served without faults"
                    )
            return tuple(entry["scenarios"]), {}
        base = get_scenario(entry["base_scenario"])
        if entry["scenario"] != base.name:
            # A benchmark-local spec derived from a built-in one, registered
            # so that run_sweep can name it like any other scenario.
            register(
                dataclasses.replace(
                    base,
                    name=entry["scenario"],
                    description=f"{self.name} benchmark workload on {base.name}",
                    defaults={**base.defaults, **params},
                    serve=entry["serving"],
                ),
                replace=True,
            )
            return (entry["scenario"],), {}
        merged = base.merge_params(params)
        if "trace_epochs" in params:
            horizon = merged["trace_epochs"] * merged["trace_epoch_ms"]
            if merged["horizon_ms"] != horizon:
                raise ConfigurationError(
                    f"{self.name}: horizon_ms must be trace_epochs x "
                    f"trace_epoch_ms = {horizon}"
                )
        return (base.name,), {key: [value] for key, value in params.items()}

    def round_config(self, index: int) -> SweepConfig:
        per_round = self.entry["seeds_per_round"]
        first = (self.seed * 1000 + index) * per_round
        return SweepConfig(
            scenarios=self._scenarios,
            grid=self._grid,
            seeds=tuple(range(first, first + per_round)),
        )

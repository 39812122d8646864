"""Per-suite floors: ``repro bench verify``.

A *floor* pins one metric of one suite's history record, so a perf or
quality regression fails loudly instead of landing as a quietly smaller
number in ``BENCH_HISTORY.jsonl``.  Two kinds:

* **Shape floors** (``timing=False``) — identity checks, row counts,
  model-quality bands.  Deterministic, so they hold on every record,
  smoke runs included.
* **Timing floors** (``timing=True``) — wall-clock-derived numbers
  (speedups, build rates).  Checked only on full (non-smoke) records,
  and scaled by the machine class: shared CI runners are slower and
  noisier than the reference machine the baselines in ``BASELINES.md``
  were measured on, so CI asserts a relaxed fraction of each floor
  (``REPRO_BENCH_MACHINE_CLASS=ci``) rather than flaking.

The starting floors encode the recorded baselines: the 6.38x
scheduler-cache speedup (floored at 3x, its pre-harness assertion) and
the ``BENCH_topologies.json`` build rates (floored at roughly an order
of magnitude below the recorded reference numbers, so only a real
regression — not jitter — trips them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from .history import machine_class
from .registry import metric_at

#: Hardware class -> fraction of each timing floor that must still hold.
MACHINE_CLASS_FACTORS = {
    "reference": 1.0,
    "workstation": 1.0,
    "laptop": 0.5,
    "ci": 0.2,
}


@dataclass(frozen=True)
class Floor:
    """One pinned metric: ``record.suites[suite].<metric> op limit``."""

    suite: str
    metric: str
    limit: float
    op: str = ">="
    timing: bool = False
    doc: str = ""

    def effective_limit(self, factor: float) -> float:
        """The limit after machine-class relaxation (timing floors only)."""
        if not self.timing or factor == 1.0:
            return self.limit
        return self.limit * factor if self.op == ">=" else self.limit / factor

    def describe(self) -> str:
        return f"{self.suite}.{self.metric} {self.op} {self.limit:g}"


@dataclass(frozen=True)
class Violation:
    floor: Floor
    value: Optional[float]
    effective: float
    reason: str


#: The tracked floors.  Shape floors first, then timing floors.
FLOORS: List[Floor] = [
    # -- shape: deterministic, asserted on every record including smoke --
    Floor(
        "scheduler", "scale_free_200.identical", 1,
        doc="cached and uncached schedulers byte-identical at N=200",
    ),
    Floor(
        "scheduler", "scale_free_50.identical", 1,
        doc="cached and uncached schedulers byte-identical at N=50",
    ),
    Floor(
        "sweep", "identical", 1,
        doc="pool and socket backends byte-identical to serial",
    ),
    Floor(
        "topologies", "families", 11,
        doc="registry still exposes every topology family",
    ),
    Floor(
        "topologies", "deterministic", 1,
        doc="same-params topology builds are byte-identical",
    ),
    Floor(
        "fig1", "bandwidth_saving_gbps", 1e-9,
        doc="flexible consumes less bandwidth than fixed on fig1",
    ),
    Floor(
        "fig3a", "latency_saving_pct", 5.0,
        doc="fig3a latency saving at 15 locals stays in the paper band",
    ),
    Floor(
        "fig3a", "latency_saving_pct", 60.0, op="<=",
        doc="fig3a saving not suspiciously above the paper band",
    ),
    Floor(
        "fig3b", "bandwidth_gap_widens", 1,
        doc="fig3b fixed-vs-flexible bandwidth gap widens with locals",
    ),
    Floor(
        "simcheck", "max_gap_percent", 10.0, op="<=",
        doc="analytic model within 10% of event-driven execution",
    ),
    Floor(
        "optgap", "worst_mean_ratio", 1.10, op="<=",
        doc="MST heuristic mean optimality gap stays under 10%",
    ),
    Floor(
        "campaign", "flexible_blocked", 0.0, op="<=",
        doc="flexible scheduler admits the whole campaign mix",
    ),
    Floor(
        "resilience", "min_availability", 1e-9,
        doc="fault-injected campaigns still make progress",
    ),
    Floor(
        "obs", "identical", 1,
        doc="result rows byte-identical with telemetry on and off",
    ),
    Floor(
        "obs", "collect_identical", 1,
        doc="result rows byte-identical with trace collection on and off",
    ),
    Floor(
        "csr", "scale_free_200.identical", 1,
        doc="schedules byte-identical to the object-kernel reference at N=200",
    ),
    Floor(
        "csr", "scale_free_1k.hub_utilisation", 1.001, op="<=",
        doc="hub edges never oversubscribed under held schedules",
    ),
    Floor(
        "csr", "scale_free_5k.scheduled", 3,
        doc="the N=5000 scale-free regime builds and schedules",
    ),
    Floor(
        "traces", "identical", 1,
        doc="trace+SRLG replay byte-identical between serial and pool",
    ),
    Floor(
        "traces", "srlg_cuts", 1,
        doc="the pinned replay actually exercises correlated cuts",
    ),
    Floor(
        "traces", "deadline_rows", 1,
        doc="inter-DC sweeps carry the deadline-miss columns",
    ),
    # -- timing: full records only, relaxed by machine class ------------
    Floor(
        "obs", "off_overhead_pct", 2.0, op="<=", timing=True,
        doc="telemetry-off guard overhead under 2% of sweep wall time",
    ),
    Floor(
        "obs", "collect_overhead_pct", 5.0, op="<=", timing=True,
        doc="distributed trace collection overhead under 5% of sweep wall",
    ),
    Floor(
        "scheduler", "scale_free_200.speedup", 3.0, timing=True,
        doc="routing-cache schedule speedup at N=200 (6.38x baseline predates CSR)",
    ),
    Floor(
        "csr", "scale_free_200.speedup", 5.0, timing=True,
        doc="speedup over the uncached object-kernel reference at N=200",
    ),
    Floor(
        "topologies", "clos.builds_per_s", 100.0, timing=True,
        doc="Clos build rate (reference baseline 786/s)",
    ),
    Floor(
        "topologies", "nsfnet.builds_per_s", 1000.0, timing=True,
        doc="NSFNet build rate (reference baseline 8516/s)",
    ),
    Floor(
        "topologies", "scale-free.builds_per_s", 40.0, timing=True,
        doc="scale-free build rate (reference baseline 348/s)",
    ),
    Floor(
        "topologies", "waxman.builds_per_s", 25.0, timing=True,
        doc="Waxman build rate (reference baseline 221/s)",
    ),
    Floor(
        "traces", "replay_runs_per_s", 2.0, timing=True,
        doc="trace+SRLG campaign replay rate (reference baseline 16/s)",
    ),
]


def machine_class_factor(name: Optional[str] = None) -> float:
    """The relaxation factor for a machine class (env default)."""
    name = name or machine_class()
    try:
        return MACHINE_CLASS_FACTORS[name]
    except KeyError:
        known = ", ".join(sorted(MACHINE_CLASS_FACTORS))
        raise ConfigurationError(
            f"unknown machine class {name!r}; known: {known}"
        ) from None


def _as_number(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def verify_record(
    record: Dict[str, Any], *, machine_class: Optional[str] = None
) -> List[Violation]:
    """Every floor violation in one history record (empty = pass).

    Floors for suites absent from the record are skipped — a
    ``--suite``-restricted run records only what it ran — but a floored
    metric *missing inside a present suite* is a violation: losing the
    metric is how a regression hides.
    """
    factor = machine_class_factor(machine_class)
    smoke = bool(record.get("smoke"))
    suites: Dict[str, Any] = record.get("suites", {})
    violations: List[Violation] = []
    for floor in FLOORS:
        metrics = suites.get(floor.suite)
        if metrics is None:
            continue
        if floor.timing and smoke:
            continue
        effective = floor.effective_limit(factor)
        value = _as_number(metric_at(metrics, floor.metric))
        if value is None:
            violations.append(
                Violation(
                    floor, None, effective,
                    f"metric {floor.metric!r} missing from suite "
                    f"{floor.suite!r}",
                )
            )
            continue
        passed = value >= effective if floor.op == ">=" else value <= effective
        if not passed:
            violations.append(
                Violation(
                    floor, value, effective,
                    f"{floor.suite}.{floor.metric} = {value:g} violates "
                    f"{floor.op} {effective:g}"
                    + (
                        f" (base {floor.limit:g}, machine-class x{factor:g})"
                        if floor.timing and factor != 1.0
                        else ""
                    ),
                )
            )
    return violations

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

This table is the one place a limit is written: suites measure and
report, and never assert a floor of their own, so a full run always
appends its record and ``verify`` is the judge.  Timing floors sit well
below (or above, for ``<=``) the recorded reference numbers — the
topology build rates by roughly an order of magnitude, the production
schedule time by more than 3x — so only a real regression, not
jitter, trips them.
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
        "sweep", "builds_per_key", 1.0, op="<=",
        doc="a run key builds its scenario once; the second scheduler "
        "gets a clone",
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
        "fig3a", "transfer_calls_per_path", 1.5, op="<=",
        doc="evaluation prices each distinct (size, rate) stage once",
    ),
    Floor(
        "compression", "fp16_comm_ratio", 0.35,
        doc="fp16 about halves flexible-mst communication (lower edge)",
    ),
    Floor(
        "compression", "fp16_comm_ratio", 0.65, op="<=",
        doc="fp16 about halves flexible-mst communication (upper edge)",
    ),
    Floor(
        "compression", "fp16_comm_ratio_fixed", 0.35,
        doc="fp16 about halves fixed-spff communication (lower edge)",
    ),
    Floor(
        "compression", "fp16_comm_ratio_fixed", 0.65, op="<=",
        doc="fp16 about halves fixed-spff communication (upper edge)",
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
        "campaign", "evaluations_per_schedule", 1.0, op="<=",
        doc="a campaign evaluates each schedule once, not every round",
    ),
    Floor(
        "campaign", "plan_builds_per_flexible_attempt", 1.0, op="<=",
        doc="only the tree reservation builds an upload plan",
    ),
    Floor(
        "control_plane", "fixed.reserves_per_edge", 1.0, op="<=",
        doc="a path schedule reserves each directed edge once",
    ),
    Floor(
        "control_plane", "sdn.flow_rules_built_per_install", 0, op="<=",
        doc="SDN installs keep the schedule; rules are built only when read",
    ),
    Floor(
        "control_plane", "ledger.sums_per_reserve", 1.0, op="<=",
        doc="a reserve writes its ledger slot with one bucket sum",
    ),
    Floor(
        "control_plane", "csr.idle_refresh_regathers", 0, op="<=",
        doc="an overlay refresh at an unchanged epoch gathers nothing",
    ),
    Floor(
        "control_plane", "csr.refresh_link_reads", 0, op="<=",
        doc="the overlay re-syncs from ledger slots, reading no link",
    ),
    Floor(
        "control_plane", "closure.path_results_per_tree", 0, op="<=",
        doc="a terminal tree reads its closure off the source trees, no pair paths",
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
        "csr", "scale_free_1k.vector_identical", 1,
        doc="vectorised SSSP bit-identical to the heap kernel at N=1000",
    ),
    Floor(
        "csr", "scale_free_1k.vector_ranked", 0, op="<=",
        doc="N=1000 aux solves read prev off lone ties, no settle ranks",
    ),
    Floor(
        "csr", "scale_free_1k.batch_identical", 1,
        doc="batched vectorised SSSP bit-identical to the heap kernel per source",
    ),
    Floor(
        "csr", "scale_free_1k.vector_passes_per_tree", 1, op="<=",
        doc="each terminal tree's sources solved in at most one vectorised pass",
    ),
    Floor(
        "csr", "scale_free_1k.swept_edge_fraction", 0.7, op="<=",
        doc="vectorised passes sweep the core only; access links attach after",
    ),
    Floor(
        "csr", "scale_free_1k.inject_identical", 1,
        doc="batched background flows identical to per-flow object Dijkstra",
    ),
    Floor(
        "failures", "fault_cache_revalidations", 0, op="<=",
        doc="link fault and restore leave cache validation to lookups",
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
        "scheduler", "scale_free_200.cached_s", 1.5, op="<=", timing=True,
        doc="production FlexibleScheduler wall time, 40 tasks at N=200",
    ),
    Floor(
        "csr", "scale_free_200.speedup", 5.0, timing=True,
        doc="speedup over the uncached object-kernel reference at N=200",
    ),
    Floor(
        "csr", "scale_free_1k.vector_speedup", 2.0, timing=True,
        doc="vectorised SSSP over the heap kernel on N=1000 aux weights",
    ),
    Floor(
        "csr", "ring_1k.vector_speedup", 0.5, timing=True,
        doc="worst-case ring: a sweep-budget give-up costs at most 2x",
    ),
    Floor(
        "csr", "scale_free_1k.inject_speedup", 2.0, timing=True,
        doc="50-flow background injection over per-flow object Dijkstra",
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
    Floor(
        "failures", "fault_history_ratio", 2.0, op="<=", timing=True,
        doc="link fault cost independent of task history (5k completed tasks)",
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

"""Declarative SLO and regression watchdogs: ``repro obs watch``.

Two rule tables, both data, both renderable:

* :class:`SloRule` — a threshold on one metric of an **analyzed
  campaign trace** (``repro obs analyze`` metrics: ``coverage``,
  ``phase.schedule.p99_ms``, ...).  A missing metric is itself a
  breach — losing the measurement is how an SLO quietly dies.
* :class:`RegressionRule` — a step-change detector on one tracked
  metric's **``BENCH_HISTORY.jsonl`` trajectory** (``csr.
  scale_free_200.speedup``, ``obs.off_overhead_pct``, ...).  The
  newest full (non-smoke) value is compared against the trailing
  median of the preceding window; drifting past the tolerance in the
  bad direction trips the rule.  Too few points means *skipped*, not
  passed — the report says so.

``repro obs watch`` evaluates whichever inputs it is given (a merged
trace, a history file, or both) and exits non-zero on any breach;
``repro bench verify --watch`` runs the regression table after the
floor gate, so a slow slide that never crosses a floor still fails
loudly.  Rules are deliberately tiny data objects: projects grow the
tables, not the engine.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Comparison operators an SLO rule may use.
_OPS = ("<=", ">=")


@dataclass(frozen=True)
class SloRule:
    """``metric op limit`` over one analyzed campaign trace."""

    name: str
    metric: str
    limit: float
    op: str = "<="
    doc: str = ""

    def describe(self) -> str:
        return f"{self.metric} {self.op} {self.limit:g}"


@dataclass(frozen=True)
class RegressionRule:
    """Trailing-median drift on one ``BENCH_HISTORY`` metric.

    ``metric`` is ``<suite>.<dotted.path>``; the newest full record's
    value is compared against the median of up to ``window`` preceding
    values (at least ``min_points`` total values must exist, else the
    rule is skipped and reported as such).  ``higher_is_better`` picks
    the bad direction; ``tolerance_pct`` is how far past the median the
    newest value may drift before the rule trips.
    """

    name: str
    metric: str
    higher_is_better: bool = True
    tolerance_pct: float = 30.0
    window: int = 5
    min_points: int = 3
    doc: str = ""

    def describe(self) -> str:
        direction = "drop" if self.higher_is_better else "rise"
        return (
            f"{self.metric}: newest may not {direction} >"
            f"{self.tolerance_pct:g}% vs trailing median"
        )


@dataclass(frozen=True)
class Breach:
    """One tripped rule, with the evidence."""

    rule: str
    kind: str  # "slo" | "regression"
    metric: str
    value: Optional[float]
    reference: Optional[float]
    reason: str


@dataclass(frozen=True)
class WatchResult:
    breaches: List[Breach]
    checked: List[str]
    skipped: List[str]

    @property
    def ok(self) -> bool:
        return not self.breaches


#: Default SLOs over a merged campaign trace.
DEFAULT_SLO_RULES: List[SloRule] = [
    SloRule(
        "trace-runs", "runs", 1.0, op=">=",
        doc="the merged trace contains at least one collected run",
    ),
    SloRule(
        "trace-coverage", "coverage", 1.0, op=">=",
        doc="every executed run's spans reached the merged trace",
    ),
]

#: Default regression rules over the BENCH_HISTORY trajectory — the
#: tracked headline metrics.  Tolerances sit well above run-to-run
#: jitter (see BASELINES.md) so only step changes trip.
DEFAULT_REGRESSION_RULES: List[RegressionRule] = [
    RegressionRule(
        "csr-speedup", "csr.scale_free_200.speedup",
        higher_is_better=True, tolerance_pct=40.0,
        doc="speedup over the uncached object-kernel reference at N=200",
    ),
    RegressionRule(
        "scheduler-cache-speedup", "scheduler.scale_free_200.speedup",
        higher_is_better=True, tolerance_pct=40.0,
        doc="routing-cache schedule speedup at N=200",
    ),
    RegressionRule(
        "obs-off-overhead", "obs.off_overhead_pct",
        higher_is_better=False, tolerance_pct=100.0,
        doc="telemetry-off guard overhead as % of sweep wall time",
    ),
    RegressionRule(
        "obs-collect-overhead", "obs.collect_overhead_pct",
        higher_is_better=False, tolerance_pct=100.0,
        doc="distributed-collection overhead on socket sweeps",
    ),
    RegressionRule(
        "traces-replay-rate", "traces.replay_runs_per_s",
        higher_is_better=True, tolerance_pct=60.0,
        doc="trace+SRLG campaign replay rate",
    ),
]


def parse_slo_rule(text: str) -> SloRule:
    """``metric<=limit`` / ``metric>=limit`` from the CLI ``--slo``."""
    for op in _OPS:
        if op in text:
            metric, _, raw = text.partition(op)
            metric = metric.strip()
            try:
                limit = float(raw.strip())
            except ValueError:
                raise ConfigurationError(
                    f"bad SLO limit in {text!r}: {raw.strip()!r}"
                ) from None
            if not metric:
                raise ConfigurationError(f"bad SLO rule {text!r}: no metric")
            return SloRule(f"cli:{metric}", metric, limit, op=op)
    raise ConfigurationError(
        f"bad SLO rule {text!r}: expected <metric><=|>=<limit>"
    )


def _as_number(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def evaluate_slo(
    metrics: Dict[str, Any], rules: Sequence[SloRule]
) -> Tuple[List[Breach], List[str]]:
    """Breaches (+ checked descriptions) of SLO rules on one analysis."""
    breaches: List[Breach] = []
    checked: List[str] = []
    for rule in rules:
        checked.append(f"slo {rule.name}: {rule.describe()}")
        value = _as_number(metrics.get(rule.metric))
        if value is None:
            breaches.append(
                Breach(
                    rule.name, "slo", rule.metric, None, rule.limit,
                    f"metric {rule.metric!r} missing from the analyzed trace",
                )
            )
            continue
        passed = (
            value <= rule.limit if rule.op == "<=" else value >= rule.limit
        )
        if not passed:
            breaches.append(
                Breach(
                    rule.name, "slo", rule.metric, value, rule.limit,
                    f"{rule.metric} = {value:g} violates "
                    f"{rule.op} {rule.limit:g}",
                )
            )
    return breaches, checked


def _metric_series(
    records: Iterable[Dict[str, Any]], metric: str
) -> List[float]:
    """The metric's trajectory over full (non-smoke) history records."""
    from ..bench.registry import metric_at  # deferred: bench imports obs

    suite, _, path = metric.partition(".")
    if not path:
        raise ConfigurationError(
            f"regression metric {metric!r} must be <suite>.<dotted.path>"
        )
    series: List[float] = []
    for record in records:
        if not isinstance(record, dict) or record.get("smoke"):
            continue
        metrics = record.get("suites", {}).get(suite)
        if metrics is None:
            continue
        value = _as_number(metric_at(metrics, path))
        if value is not None:
            series.append(value)
    return series


def evaluate_regressions(
    records: Sequence[Dict[str, Any]],
    rules: Sequence[RegressionRule],
) -> Tuple[List[Breach], List[str], List[str]]:
    """Breaches / checked / skipped for regression rules on a history."""
    breaches: List[Breach] = []
    checked: List[str] = []
    skipped: List[str] = []
    for rule in rules:
        series = _metric_series(records, rule.metric)
        if len(series) < max(2, rule.min_points):
            skipped.append(
                f"regression {rule.name}: {len(series)} point(s) < "
                f"{max(2, rule.min_points)} needed"
            )
            continue
        newest = series[-1]
        trailing = series[max(0, len(series) - 1 - rule.window):-1]
        baseline = statistics.median(trailing)
        checked.append(
            f"regression {rule.name}: {rule.metric} newest {newest:g} "
            f"vs median {baseline:g} (n={len(trailing)})"
        )
        if baseline == 0:
            continue
        drift_pct = (newest - baseline) / abs(baseline) * 100.0
        bad = (
            drift_pct < -rule.tolerance_pct
            if rule.higher_is_better
            else drift_pct > rule.tolerance_pct
        )
        if bad:
            breaches.append(
                Breach(
                    rule.name, "regression", rule.metric, newest, baseline,
                    f"{rule.metric} stepped from median {baseline:g} to "
                    f"{newest:g} ({drift_pct:+.1f}%, tolerance "
                    f"±{rule.tolerance_pct:g}%)",
                )
            )
    return breaches, checked, skipped


def watch(
    *,
    trace: Optional[str] = None,
    history: Optional[str] = None,
    slo_rules: Optional[Sequence[SloRule]] = None,
    regression_rules: Optional[Sequence[RegressionRule]] = None,
) -> WatchResult:
    """Evaluate every applicable rule; at least one input is required."""
    if trace is None and history is None:
        raise ConfigurationError(
            "obs watch needs a merged trace (--trace) and/or a bench "
            "history (--history)"
        )
    breaches: List[Breach] = []
    checked: List[str] = []
    skipped: List[str] = []
    if trace is not None:
        from .analyze import analyze  # deferred: avoid import at startup

        analysis = analyze(trace)
        slo = DEFAULT_SLO_RULES if slo_rules is None else list(slo_rules)
        slo_breaches, slo_checked = evaluate_slo(analysis["metrics"], slo)
        breaches.extend(slo_breaches)
        checked.extend(slo_checked)
    if history is not None:
        from ..bench.history import read_history  # deferred: bench imports obs

        records = read_history(history)
        rules = (
            DEFAULT_REGRESSION_RULES
            if regression_rules is None
            else list(regression_rules)
        )
        reg_breaches, reg_checked, reg_skipped = evaluate_regressions(
            records, rules
        )
        breaches.extend(reg_breaches)
        checked.extend(reg_checked)
        skipped.extend(reg_skipped)
    return WatchResult(breaches=breaches, checked=checked, skipped=skipped)


def render_watch(result: WatchResult) -> str:
    """The ``repro obs watch`` report (breaches first, then the audit)."""
    lines: List[str] = []
    if result.breaches:
        lines.append(f"WATCHDOG BREACHES ({len(result.breaches)}):")
        for breach in result.breaches:
            lines.append(f"  [{breach.kind}] {breach.rule}: {breach.reason}")
    else:
        lines.append("watchdogs green")
    if result.checked:
        lines.append("")
        lines.append(f"checked ({len(result.checked)}):")
        lines.extend(f"  {entry}" for entry in result.checked)
    if result.skipped:
        lines.append("")
        lines.append(f"skipped ({len(result.skipped)}):")
        lines.extend(f"  {entry}" for entry in result.skipped)
    return "\n".join(lines)

"""Trend rendering: ``repro bench report``.

Turns the recorded trajectory — every ``BENCH_HISTORY.jsonl`` line,
oldest first — into plain-text tables:

* the default view tracks each suite's *headline* metric (declared in
  its ``@bench_suite`` registration) across records, so "did the
  production schedule time drift?" is one glance;
* ``--suite NAME`` expands one suite into every scalar metric it
  reports, across the same records.

Records are labelled by git SHA and date; smoke records are marked
``(smoke)`` because their timing numbers are deliberately tiny and must
not be read as regressions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .registry import list_suites, metric_at

#: Fallback headline when a suite never declared one.
DEFAULT_HEADLINE = "elapsed_s"


def record_label(record: Dict[str, Any]) -> str:
    sha = record.get("git_sha") or "?"
    stamp = record.get("timestamp") or ""
    day = stamp.split("T")[0] if isinstance(stamp, str) else ""
    label = f"{sha}@{day}" if day else sha
    if record.get("smoke"):
        label += " (smoke)"
    return label


def _headlines() -> Dict[str, str]:
    """suite name -> headline metric path, from the live registry."""
    return {
        suite.name: suite.headline or DEFAULT_HEADLINE
        for suite in list_suites()
    }


def _format(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _render_table(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    widths = [
        max(len(str(header[col])), *(len(row[col]) for row in rows))
        if rows
        else len(str(header[col]))
        for col in range(len(header))
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            str(cell).ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    rule = "  ".join("-" * width for width in widths)
    return "\n".join([line(header), rule] + [line(row) for row in rows])


def suite_trend(
    records: Sequence[Dict[str, Any]], suite: str
) -> List[Tuple[str, Dict[str, Any]]]:
    """``(record label, suite metrics)`` for every record carrying the suite."""
    return [
        (record_label(record), record["suites"][suite])
        for record in records
        if suite in record.get("suites", {})
    ]


def render_report(
    records: Sequence[Dict[str, Any]],
    *,
    suite: Optional[str] = None,
) -> str:
    """The trend table over ``records`` (oldest first)."""
    if not records:
        return "(no benchmark history yet — run 'repro bench run')"
    if suite is not None:
        return _render_suite_report(records, suite)
    headlines = _headlines()
    suite_names: List[str] = []
    for record in records:
        for name in record.get("suites", {}):
            if name not in suite_names:
                suite_names.append(name)
    header = ["suite", "headline"] + [record_label(r) for r in records]
    rows = []
    for name in suite_names:
        headline = headlines.get(name, DEFAULT_HEADLINE)
        cells = [name, headline]
        for record in records:
            metrics = record.get("suites", {}).get(name)
            value = metric_at(metrics, headline) if metrics else None
            if value is None and metrics is not None:
                value = metric_at(metrics, DEFAULT_HEADLINE)
            cells.append(_format(value))
        rows.append(cells)
    return _render_table(header, rows)


def _render_suite_report(
    records: Sequence[Dict[str, Any]], suite: str
) -> str:
    trend = suite_trend(records, suite)
    if not trend:
        return f"(no records carry suite {suite!r})"
    metric_names: List[str] = []
    flat: List[Tuple[str, Dict[str, float]]] = []
    for label, metrics in trend:
        scalars = _flatten(metrics)
        flat.append((label, scalars))
        for name in scalars:
            if name not in metric_names:
                metric_names.append(name)
    header = ["metric"] + [label for label, _ in flat]
    rows = [
        [name] + [_format(scalars.get(name)) for _, scalars in flat]
        for name in metric_names
    ]
    return _render_table(header, rows)


def _flatten(
    metrics: Dict[str, Any], prefix: str = ""
) -> Dict[str, Any]:
    """Scalar leaves of a metrics dict, keyed by dotted path."""
    out: Dict[str, Any] = {}
    for key, value in metrics.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, prefix=path + "."))
        elif isinstance(value, (int, float, bool)) or value is None:
            out[path] = value
    return out

"""The unified benchmark harness: ``repro bench``.

Every perf claim this repository makes — the routing-cache speedup, the
topology build rates, the sweep-backend overheads, each regenerated
paper figure — lives in a ``benchmarks/test_bench_*.py`` module.  This
package is the single entry point that runs them all, records the
trajectory, and gates regressions:

* :mod:`repro.bench.registry` — the ``@bench_suite`` decorator each
  benchmark module registers itself with, plus filesystem discovery.
* :mod:`repro.bench.history` — machine-tagged ``BENCH_HISTORY.jsonl``
  records (host, python, CPU count, git SHA, timestamp, per-suite
  metrics).
* :mod:`repro.bench.runner` — ``repro bench run``: execute every (or a
  chosen) suite and append exactly one history record.
* :mod:`repro.bench.verify` — ``repro bench verify``: assert per-suite
  floors against the newest record, with machine-class relaxation for
  CI hardware.
* :mod:`repro.bench.report` — ``repro bench report``: the headline
  trend table across the whole recorded trajectory.

The benchmark modules stay runnable under bare pytest; registration is
additive.
"""

from .history import (
    HISTORY_FILENAME,
    append_record,
    read_history,
)
from .registry import BenchSuite, bench_suite, discover_suites, get_suite, list_suites
from .report import render_report, suite_trend
from .runner import run_suites
from .verify import FLOORS, Floor, Violation, machine_class_factor, verify_record

__all__ = [
    "BenchSuite",
    "FLOORS",
    "Floor",
    "HISTORY_FILENAME",
    "Violation",
    "append_record",
    "bench_suite",
    "discover_suites",
    "get_suite",
    "list_suites",
    "machine_class_factor",
    "read_history",
    "render_report",
    "run_suites",
    "suite_trend",
    "verify_record",
]

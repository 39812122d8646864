"""Benchmark: telemetry neutrality and telemetry/collection overhead.

Three claims keep ``repro.obs`` honest, and this suite prices all of
them:

* **Out-of-band** — the same sweep produces byte-identical rows with
  telemetry on and off (``identical``, a shape floor), and likewise
  with distributed trace *collection* on and off
  (``collect_identical``, a shape floor).
* **Near-free when off** — every instrumentation site costs one
  disabled-guard call (a module-attribute check).  The guard is
  microbenchmarked directly, the number of sites a sweep actually hits
  is read from ``Telemetry.touches`` on an instrumented run, and the
  product bounds what the *disabled* run paid for being instrumented::

      off_overhead_pct = guard_ns x touches / off_wall_time x 100

  The bound is analytic because the alternative — diffing wall clocks
  of two runs — measures scheduler noise, not the guard: the guard
  costs nanoseconds against a multi-second sweep.
* **Cheap when collecting** — a collected sweep runs every run under a
  per-run capture registry buffering into memory and merges the chunks
  on the coordinator.  That *is* a wall-clock effect worth pricing, so
  ``collect_overhead_pct`` is the best-of-``REPEATS`` collected wall
  against the best-of-``REPEATS`` disabled wall (best-of-N because a
  single diff of two runs measures scheduler noise).

``off_overhead_pct`` carries a 2% timing floor and
``collect_overhead_pct`` a 5% timing floor in ``repro bench verify``;
``on_overhead_pct`` (wall-clock on-vs-off delta) is recorded for the
trajectory but not floored — it *is* scheduler noise at this scale.
"""

from __future__ import annotations

import time

from repro import obs
from repro.bench import bench_suite
from repro.obs import MemorySink, TraceCollector
from repro.scenarios import SweepConfig, run_sweep

from benchmarks.conftest import run_once

#: Best-of-N repeats for the wall-clock collection-overhead pair.
REPEATS = 3

#: Serial-only: overhead is a per-process property, and one process
#: keeps the guard-count arithmetic exact (workers record nothing).
SWEEP = SweepConfig(
    scenarios=("metro-mesh-uniform", "nsfnet-wan"),
    grid={"n_locals": [3, 6, 9]},
    seeds=(0, 1),
)

SMOKE_SWEEP = SweepConfig(
    scenarios=("metro-mesh-uniform",),
    grid={"n_locals": [3]},
    seeds=(0, 1),
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _guard_ns(iterations: int) -> float:
    """Nanoseconds per disabled instrumentation call (the pricier of
    the counter guard and the null-span context manager)."""
    with obs.disabled():
        start = time.perf_counter()
        for _ in range(iterations):
            obs.inc("bench.guard")
        inc_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("bench.guard"):
                pass
        span_s = time.perf_counter() - start
    return max(inc_s, span_s) / iterations * 1e9


def _collected_sweep(config: SweepConfig):
    """One sweep with distributed trace collection into memory.

    The merged trace lands in a borrowed :class:`MemorySink`, so the
    measured delta prices the capture registries and chunk merging,
    not disk I/O.  Serial keeps the comparison apples-to-apples with
    the disabled leg (same process, same backend).
    """
    sink = MemorySink()
    collector = TraceCollector(sink, sweep="bench-obs")
    with obs.disabled():
        result = run_sweep(config, workers=1, collect=collector)
    collector.close()
    return result, sink


def _best_of(repeats: int, fn, *args, **kwargs):
    """Minimum wall time over ``repeats`` calls, plus the last result."""
    best_s, result = _timed(fn, *args, **kwargs)
    for _ in range(repeats - 1):
        elapsed, result = _timed(fn, *args, **kwargs)
        best_s = min(best_s, elapsed)
    return best_s, result


@bench_suite("obs", headline="off_overhead_pct")
def suite(smoke: bool = False) -> dict:
    """Telemetry and collection identity + both overhead figures."""
    config = SMOKE_SWEEP if smoke else SWEEP
    iterations = 20_000 if smoke else 200_000
    repeats = 2 if smoke else REPEATS
    with obs.disabled():
        off_s, off = _timed(run_sweep, config, workers=1)
    with obs.enabled() as registry:
        on_s, on = _timed(run_sweep, config, workers=1)
    touches = registry.summary()["touches"]
    identical = off.to_json() == on.to_json()
    assert identical, "telemetry changed the result rows"
    guard_ns = _guard_ns(iterations)
    # Collection overhead: best-of-N disabled wall vs best-of-N
    # collected wall, same process and backend.
    with obs.disabled():
        off_best_s, _ = _best_of(repeats, run_sweep, config, workers=1)
    collect_best_s, (collected, sink) = _best_of(
        repeats, _collected_sweep, config
    )
    collect_identical = collected.to_json() == off.to_json()
    assert collect_identical, "trace collection changed the result rows"
    return {
        "runs": len(off.rows) // 2,
        "rows": len(off.rows),
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "touches": touches,
        "guard_ns": round(guard_ns, 2),
        "off_overhead_pct": round(
            guard_ns * 1e-9 * touches / off_s * 100.0, 6
        ),
        "on_overhead_pct": round(max(0.0, (on_s - off_s) / off_s * 100.0), 2),
        "identical": identical,
        "collect_identical": collect_identical,
        "collect_records": len(sink.records),
        "collect_s": round(collect_best_s, 4),
        "collect_overhead_pct": round(
            max(0.0, (collect_best_s - off_best_s) / off_best_s * 100.0), 2
        ),
    }


def test_bench_obs_off(benchmark):
    with obs.disabled():
        result = run_once(benchmark, run_sweep, SWEEP, workers=1)
    assert len(result.rows) == 24


def test_bench_obs_on(benchmark):
    baseline = run_sweep(SWEEP, workers=1)
    with obs.enabled() as registry:
        result = run_once(benchmark, run_sweep, SWEEP, workers=1)
    assert result.to_json() == baseline.to_json()
    summary = registry.summary()
    assert summary["touches"] > 0
    assert summary["counters"]["sweep.runs_executed"] == 12


def test_bench_obs_collect(benchmark):
    baseline = run_sweep(SMOKE_SWEEP, workers=1)
    result, sink = run_once(benchmark, _collected_sweep, SMOKE_SWEEP)
    assert result.to_json() == baseline.to_json()
    kinds = {record.get("type") for record in sink.records}
    assert "span" in kinds and "gauge" in kinds
    assert any(
        record.get("name") == "campaign" for record in sink.records
    )


def test_bench_obs_suite_smoke():
    metrics = suite(smoke=True)
    assert metrics["identical"] is True
    assert metrics["collect_identical"] is True
    assert metrics["collect_records"] > 0
    assert metrics["touches"] > 0

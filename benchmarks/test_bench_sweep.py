"""Benchmark: serial vs pool vs socket-queue scenario sweeps.

Times the same sweep through the engine on each execution backend,
asserts the rows are byte-identical (the engine's core guarantee), and
— when the host actually has more than one CPU — that the pool is
faster than serial.  On a single-CPU host the speedup assertion is
skipped: two workers time-slicing one core cannot beat a serial run.
The socket backend gets no speedup assertion at all: its in-process
worker threads share the GIL, so it measures coordination overhead,
not parallelism (real gains come from external worker processes).

Smoke mode shrinks the grid to 4 runs so the identity matrix still
covers all three backends in a couple of seconds.

``builds_per_key`` (shape, floored ``<= 1.0``) counts scenario builds
per run key in the serial sweep.  ``execute_run`` calls ``instantiate``
once per scheduler; the second call gets the spare clone the first one
left, so a key builds once (it built twice, 2.0, before the spare).
"""

from __future__ import annotations

import os
import time

from repro.bench import bench_suite
from repro.scenarios import SocketQueueBackend, SweepConfig, run_sweep
from repro.scenarios.spec import ScenarioSpec

from benchmarks.conftest import run_once

#: 12 runs (2 scenarios x 3 n_locals x 2 seeds), 24 scheduler servings —
#: sized so pool start-up cost is well amortised on a 2-core runner.
SWEEP = SweepConfig(
    scenarios=("metro-mesh-uniform", "nsfnet-wan"),
    grid={"n_locals": [3, 6, 9]},
    seeds=(0, 1),
)

#: 4 runs, 8 servings: enough to exercise every backend's machinery.
SMOKE_SWEEP = SweepConfig(
    scenarios=("metro-mesh-uniform", "nsfnet-wan"),
    grid={"n_locals": [3]},
    seeds=(0, 1),
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _counting_builds(fn, *args, **kwargs):
    """``fn``'s result and the scenario builds made while it ran."""
    builds = [0]
    build = ScenarioSpec._build

    def counted(self, merged, seed):
        builds[0] += 1
        return build(self, merged, seed)

    ScenarioSpec._build = counted
    try:
        return fn(*args, **kwargs), builds[0]
    finally:
        ScenarioSpec._build = build


@bench_suite("sweep", headline="serial_s")
def suite(smoke: bool = False) -> dict:
    """Backend identity + overhead: serial vs process pool vs socket."""
    config = SMOKE_SWEEP if smoke else SWEEP
    runs = len(config.scenarios) * len(config.seeds) * len(config.grid["n_locals"])
    (serial_s, serial), builds = _counting_builds(
        _timed, run_sweep, config, workers=1
    )
    pool_s, pool = _timed(run_sweep, config, workers=2)
    socket_s, socket = _timed(
        run_sweep,
        config,
        backend=SocketQueueBackend(local_workers=2, timeout=600.0),
    )
    identical = (
        serial.to_json() == pool.to_json()
        and serial.to_json() == socket.to_json()
    )
    assert identical, "backends diverged on the same sweep"
    return {
        "runs": runs,
        "builds_per_key": round(builds / runs, 3),
        "rows": len(serial.rows),
        "serial_s": round(serial_s, 4),
        "pool_s": round(pool_s, 4),
        "socket_s": round(socket_s, 4),
        "pool_speedup": round(serial_s / pool_s, 2) if pool_s > 0 else None,
        "identical": identical,
    }


def test_bench_sweep_serial(benchmark):
    result = run_once(benchmark, run_sweep, SWEEP, workers=1)
    assert len(result.rows) == 24


def test_bench_sweep_parallel(benchmark):
    result = run_once(benchmark, run_sweep, SWEEP, workers=2)
    assert len(result.rows) == 24


def test_bench_sweep_socket(benchmark):
    result = run_once(
        benchmark,
        run_sweep,
        SWEEP,
        backend=SocketQueueBackend(local_workers=2, timeout=600.0),
    )
    assert len(result.rows) == 24


def test_socket_matches_serial(benchmark):
    serial = run_sweep(SWEEP, workers=1)
    distributed = run_once(
        benchmark,
        run_sweep,
        SWEEP,
        backend=SocketQueueBackend(local_workers=2, timeout=600.0),
    )
    assert serial.to_json() == distributed.to_json()


def test_parallel_matches_serial_and_speeds_up(benchmark):
    t0 = time.perf_counter()
    serial = run_sweep(SWEEP, workers=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_once(benchmark, run_sweep, SWEEP, workers=2)
    parallel_s = time.perf_counter() - t0

    assert serial.to_json() == parallel.to_json()
    # A 2-core host should see ~40% savings on this 12-run sweep, so a
    # required 5% win separates real speedup from scheduling noise.
    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s * 0.95, (
            f"2-worker pool ({parallel_s:.2f}s) should beat serial "
            f"({serial_s:.2f}s) on a multi-core host"
        )

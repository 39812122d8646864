"""Benchmark: trace-replay campaigns with correlated failures.

Times the pinned trace + SRLG campaign sweep (the PR-9 acceptance
scenario) and asserts its determinism and shape: serial and pool rows
are byte-identical, the forecast/SRLG metrics actually fire, and the
inter-DC deadline columns land on the rows that carry deadline tasks —
and only on those.

``replay_runs_per_s`` is the best of :data:`TIMED_SWEEPS` timed serial
sweeps of the replay (the first is the identity reference the others
and the pool sweep must match): one sweep of four runs lasts a few
tenths of a second, too short for a single timing to judge the code.

Smoke mode shrinks the trace to 8 epochs and one seed.
"""

from __future__ import annotations

import time

from repro.bench import bench_suite
from repro.scenarios import SweepConfig, run_sweep

from benchmarks.conftest import run_once

REPLAY = SweepConfig(
    scenarios=("trace-srlg-campaign",),
    grid={"trace_epochs": [12, 24]},
    seeds=(0, 1),
)

SMOKE_REPLAY = SweepConfig(
    scenarios=("trace-srlg-campaign",),
    grid={"trace_epochs": [8]},
    seeds=(0,),
)

#: Serial sweeps timed per record; the replay rate is the best of them.
TIMED_SWEEPS = 3

DEADLINES = SweepConfig(
    scenarios=("interdc-deadlines",),
    grid={"n_tasks": [8]},
    seeds=(0,),
)


@bench_suite("traces", headline="replay_runs_per_s")
def suite(smoke: bool = False) -> dict:
    """Trace + SRLG replay: backend identity, fault shape, deadlines."""
    config = SMOKE_REPLAY if smoke else REPLAY
    runs = len(config.seeds) * len(config.grid["trace_epochs"])
    serial = None
    elapsed = float("inf")
    for _ in range(TIMED_SWEEPS):
        start = time.perf_counter()
        sweep = run_sweep(config, workers=1)
        elapsed = min(elapsed, time.perf_counter() - start)
        if serial is None:
            serial = sweep
        assert sweep.to_json() == serial.to_json()
    pool = run_sweep(config, workers=2)
    identical = serial.to_json() == pool.to_json()
    assert identical, "trace replay diverged between serial and pool"
    for row in serial.rows:
        assert row["srlg_cuts"] > 0
        assert row["forecast_drains"] + row["forecast_blocks"] >= 0
        assert 0.0 < row["availability"] <= 1.0
        assert "deadline_tasks" not in row  # trace mix is best-effort
    deadline_rows = run_sweep(DEADLINES, workers=1).rows
    for row in deadline_rows:
        assert row["deadline_tasks"] > 0
        assert 0 <= row["deadline_misses"] <= row["deadline_tasks"]
    return {
        "runs": runs,
        "rows": len(serial.rows),
        "identical": identical,
        "srlg_cuts": max(r["srlg_cuts"] for r in serial.rows),
        "forecast_events": max(
            r["forecast_drains"] + r["forecast_blocks"] for r in serial.rows
        ),
        "deadline_rows": len(deadline_rows),
        "replay_runs_per_s": round(runs / elapsed, 2) if elapsed > 0 else None,
    }


def test_bench_trace_replay(benchmark):
    result = run_once(benchmark, run_sweep, REPLAY, workers=1)
    assert len(result.rows) == 8  # 2 epochs x 2 seeds x 2 schedulers


def test_bench_interdc_deadlines(benchmark):
    result = run_once(benchmark, run_sweep, DEADLINES, workers=1)
    assert all(row["deadline_tasks"] == 8 for row in result.rows)

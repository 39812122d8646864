"""Playing one workload: timed rounds, correctness checks, metrics.

A round is one ``run_sweep`` call on the serial backend with a JSONL
sink, over the run keys :meth:`Workload.round_config` names.  An
untraced run (``trace=False``) wraps only the boundary calls; a traced
run alternates untraced and traced plays of each round, in alternating
order, and compares their sinks byte for byte.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scenarios.sweep.engine import SweepConfig, run_sweep

from probes import EVENTS, FLEXIBLE, LAYERS, BoundaryProbe, LayerTracer, Patches, RoundStats
from speed import NOMINAL_MS, SpeedGauge
from state import cache_counters, check_rows, scan_networks
from workloads import Workload

perf_counter = time.perf_counter

#: Tolerance of the self-time reconciliation, in seconds.
RECONCILE_EPS_S = 1e-6

#: Reference samples taken right before and right after each untraced round.
BRACKET_SAMPLES = 8


@dataclass
class Round:
    """One played round and what was checked about it."""

    t0: float
    t1: float
    wall_s: float
    stats: RoundStats
    sink: bytes
    rows: List[Dict[str, Any]]
    cache: Counter
    problems: List[str] = field(default_factory=list)


@dataclass
class Outcome:
    """A finished run: its metrics with units, checks, and sample notes."""

    metrics: Dict[str, Tuple[float, str]]
    notes: Dict[str, str]
    attempted: int
    failed: int
    problems: List[str]
    rounds: int
    measured_s: float
    layer_table: Optional[List[Tuple[str, int, float, float]]] = None


def nearest_rank(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(out_dir: str) -> None:
    """One unmeasured tiny sweep, so lazy imports are not timed."""
    path = os.path.join(out_dir, "warm-up.jsonl")
    run_sweep(SweepConfig(scenarios=("toy-triangle",)), backend="serial", jsonl_path=path)
    os.remove(path)


class Session:
    """Plays a workload's rounds under the probes."""

    def __init__(self, workload: Workload, out_dir: str) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.gauge = SpeedGauge()
        self.probe = BoundaryProbe(self.gauge)
        self.tracer = LayerTracer()

    def _bracket(self) -> None:
        for _ in range(BRACKET_SAMPLES):
            self.gauge.sample()

    def play(self, index: int, *, traced: bool = False, tag: str = "") -> Round:
        config = self.workload.round_config(index)
        path = os.path.join(self.out_dir, f"round-{index}{tag}.jsonl")
        # Each round stands for a fresh sweep: collect the previous one's
        # garbage outside the timed region.
        gc.collect()
        stats = self.probe.start_round()
        self.probe.sampling = not traced
        with Patches() as patches:
            if traced:
                # No reference samples inside a traced round: they would
                # land in the self time of the layer around them.
                self.probe.install(patches)
                self.tracer.install(patches)
            else:
                self._bracket()
                self.probe.install(patches)
            t0 = perf_counter()
            run_sweep(config, backend="serial", jsonl_path=path, name=self.workload.name)
            t1 = perf_counter()
        if not traced:
            self._bracket()
        wall_s = t1 - t0 - self.gauge.sampled_s(t0, t1)
        with open(path, "rb") as handle:
            sink = handle.read()
        os.remove(path)
        rows = [json.loads(line) for line in sink.splitlines()]
        problems = check_rows(rows, stats.instances, stats.attempts)
        problems += scan_networks(stats.instances)
        cache = cache_counters(stats.instances)
        stats.instances = []  # let the round's networks go
        where = f"round {index}{' traced' if traced else ''}"
        return Round(
            t0=t0,
            t1=t1,
            wall_s=wall_s,
            stats=stats,
            sink=sink,
            rows=rows,
            cache=cache,
            problems=[f"{where}: {p}" for p in problems],
        )


def _timed_loop(seconds: float, step: Callable[[int], float]) -> Tuple[int, float]:
    """Run ``step(i)`` until ``seconds`` of step time are used.

    Stops before a step that, judged by the last one, would end more
    than half a step past ``seconds``.  Returns (steps, time used).
    """
    used = 0.0
    last = 0.0
    index = 0
    while index == 0 or used + last / 2 < seconds:
        last = step(index)
        used += last
        index += 1
    return index, used


def _flexible_rows(rounds: List[Round]) -> List[Dict[str, Any]]:
    return [row for r in rounds for row in r.rows if row["scheduler"] == FLEXIBLE]


def _tally(rounds: List[Round]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every round played."""
    attempted = sum(r.stats.attempts for r in rounds)
    failed = sum(r.stats.attempts for r in rounds if r.problems)
    problems = [p for r in rounds for p in r.problems]
    return attempted, failed, problems


def run_untraced(session: Session, seconds: float) -> Outcome:
    """The end-to-end run: every metric the user of the system sees."""
    measured: List[Round] = []

    def step(index: int) -> float:
        measured.append(session.play(index))
        return measured[-1].wall_s

    steps, used = _timed_loop(seconds, step)
    repeat = session.play(0, tag="-repeat")
    if repeat.sink != measured[0].sink:
        repeat.problems.append("round 0: sink JSONL differs on repeat")
    attempted, failed, problems = _tally(measured + [repeat])

    gauge = session.gauge
    tasks = sum(r.stats.attempts for r in measured)
    wall = sum(r.wall_s for r in measured)
    scaled_wall = sum(gauge.scaled(r.t0, r.t1) for r in measured)
    admit_spans = [span for r in measured for span in r.stats.admit_spans]
    admit_ms = [gauge.scaled(*span) * 1000.0 for span in admit_spans]
    raw_admit_ms = [(end - start) * 1000.0 for start, end in admit_spans]
    blocked = sum(r.stats.blocked for r in measured)
    flexible = _flexible_rows(measured)
    setups = [sum(gauge.scaled(*span) for span in r.stats.setup_spans) for r in measured]
    p99_rank = max(1, math.ceil(0.99 * len(admit_ms)))
    metrics = {
        "tasks_per_s": (tasks / scaled_wall, "tasks/s"),
        "admit_p50_ms": (nearest_rank(admit_ms, 0.50), "ms"),
        "admit_p99_ms": (nearest_rank(admit_ms, 0.99), "ms"),
        "block_ratio": (blocked / tasks if tasks else 0.0, "fraction"),
        "round_ms_sim": (
            statistics.fmean(row["round_ms"] for row in flexible) if flexible else 0.0,
            "sim_ms",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    notes = {
        "tasks_per_s": f"{tasks} tasks in {scaled_wall:.2f} s scaled; "
        f"raw {wall:.2f} s = {tasks / wall:.6g} tasks/s",
        "admit_p50_ms": f"{len(admit_ms)} flexible admissions; "
        f"raw {nearest_rank(raw_admit_ms, 0.50):.6g} ms",
        "admit_p99_ms": f"{len(admit_ms) - p99_rank} samples beyond; "
        f"raw {nearest_rank(raw_admit_ms, 0.99):.6g} ms",
        "block_ratio": f"{blocked} of {tasks} blocked",
        "round_ms_sim": f"{len(flexible)} flexible rows",
        "setup_s": f"median of {len(setups)} rounds; reference kernel median "
        f"{statistics.median(gauge.samples_ms):.4f} ms over {len(gauge.samples_ms)} samples "
        f"(times scaled to {NOMINAL_MS} ms)",
        "peak_rss_mb": "whole process",
    }
    return Outcome(
        metrics=metrics,
        notes=notes,
        attempted=attempted,
        failed=failed,
        problems=problems,
        rounds=steps,
        measured_s=used,
    )


def run_traced(session: Session, seconds: float) -> Outcome:
    """The traced run: per-layer self time, counters, and reconciliation."""
    plain: List[Round] = []
    traced: List[Round] = []

    def step(index: int) -> float:
        order = (False, True) if index % 2 == 0 else (True, False)
        pair = {}
        for with_trace in order:
            pair[with_trace] = session.play(
                index, traced=with_trace, tag="-traced" if with_trace else ""
            )
        if pair[True].sink != pair[False].sink:
            pair[True].problems.append(
                f"round {index}: traced sink JSONL differs from untraced"
            )
        plain.append(pair[False])
        traced.append(pair[True])
        return pair[False].wall_s + pair[True].wall_s

    steps, used = _timed_loop(seconds, step)
    attempted, failed, problems = _tally(plain + traced)

    tracer = session.tracer
    traced_wall = sum(r.wall_s for r in traced)
    plain_wall = sum(r.wall_s for r in plain)
    attributed = tracer.attributed_s()
    self_total = sum(tracer.self_s.values())
    unattributed = traced_wall - attributed
    if abs(self_total - attributed) > RECONCILE_EPS_S or unattributed < -RECONCILE_EPS_S:
        problems.append(
            f"reconciliation: self times sum to {self_total:.6f} s, outermost "
            f"layers to {attributed:.6f} s, traced wall {traced_wall:.6f} s"
        )
        failed = attempted

    metrics: Dict[str, Tuple[float, str]] = {}
    table = []
    for layer in LAYERS:
        calls = tracer.calls[layer.name]
        self_ms = tracer.self_s[layer.name] * 1000.0
        metrics[f"{layer.name}.calls"] = (calls, "count")
        metrics[f"{layer.name}.self_ms"] = (self_ms, "ms")
        table.append((layer.name, calls, self_ms, self_ms / (traced_wall * 1000.0)))
    table.append(("unattributed", 0, unattributed * 1000.0, unattributed / traced_wall))
    table.sort(key=lambda entry: entry[2], reverse=True)
    for event in EVENTS:
        metrics[event] = (tracer.events[event], "count")
    checks = tracer.calls["network.csr.tree_unaffected"]
    passes = tracer.events["network.csr.tree_unaffected.passes"]
    metrics["network.csr.tree_unaffected.pass_ratio"] = (
        passes / checks if checks else 0.0,
        "fraction",
    )
    cache: Counter = Counter()
    for r in traced:
        cache.update(r.cache)
    lookups = cache["hits"] + cache["misses"]
    metrics["network.routing.lookups"] = (lookups, "count")
    metrics["network.routing.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0,
        "fraction",
    )
    for counter in ("repairs", "revalidations", "invalidations"):
        metrics[f"network.routing.{counter}"] = (cache[counter], "count")

    fault_ms = [
        session.gauge.scaled(*span) * 1000.0 for r in plain for span in r.stats.fault_spans
    ]
    bandwidth = [
        row["bandwidth_gbps"] for row in _flexible_rows(plain) if "bandwidth_gbps" in row
    ]
    metrics["fault_p50_ms"] = (nearest_rank(fault_ms, 0.50), "ms")
    metrics["fault_p99_ms"] = (nearest_rank(fault_ms, 0.99), "ms")
    metrics["bandwidth_gbps_sim"] = (
        statistics.fmean(bandwidth) if bandwidth else 0.0,
        "Gbps",
    )
    metrics["unattributed_ms"] = (unattributed * 1000.0, "ms")
    metrics["traced_wall_ms"] = (traced_wall * 1000.0, "ms")
    metrics["trace_overhead_pct"] = ((traced_wall / plain_wall - 1.0) * 100.0, "%")
    notes = {
        "fault_p50_ms": f"{len(fault_ms)} flexible fault-handler calls, untraced",
        "fault_p99_ms": f"{len(fault_ms)} flexible fault-handler calls, untraced",
        "bandwidth_gbps_sim": f"{len(bandwidth)} protocol-served flexible rows",
        "trace_overhead_pct": f"traced {traced_wall:.2f} s vs untraced {plain_wall:.2f} s",
        "unattributed_ms": f"+ {self_total * 1000.0:.1f} ms of layer self time = traced wall",
    }
    return Outcome(
        metrics=metrics,
        notes=notes,
        attempted=attempted,
        failed=failed,
        problems=problems,
        rounds=steps,
        measured_s=used,
        layer_table=table,
    )

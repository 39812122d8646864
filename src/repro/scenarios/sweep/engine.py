"""The sweep engine core: expansion, identity, caching, row assembly.

A sweep names one or more registered scenarios, a parameter grid, and a
seed list; the engine expands the cross product into :class:`RunKey`\\ s,
hands the missing runs to an execution *backend* (see
:mod:`repro.scenarios.sweep.backends`), streams finished runs through
any configured *result sinks* (:mod:`repro.scenarios.sweep.sinks`), and
collects everything into one
:class:`~repro.reporting.ExperimentResult`.

Three properties the tests pin down:

* **Determinism** — every run derives its randomness from a
  :class:`~repro.sim.rng.RandomStreams` fork of ``(scenario, seed)``, so
  every backend — serial, process pool, or the distributed socket queue
  — produces byte-identical rows for the same :class:`SweepConfig`.
* **Order independence** — rows are assembled in run-key order, not in
  completion order; out-of-order backends are re-sequenced by
  :class:`OrderedRecorder`.
* **Resume** — with a ``cache_dir``, finished runs persist as one JSON
  file each, keyed by a hash of (scenario, params, seed, serving); a
  rerun loads them instead of recomputing.  The distributed backend
  reuses the same cache as its shared result store.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ... import obs
from ...core.fixed import FixedScheduler
from ...core.flexible import FlexibleScheduler
from ...errors import ConfigurationError
from ...network.routing import peek_cache
from ...orchestrator.campaign import (
    campaign_runner_for,
    orchestrator_for,
    serve_sequential,
)
from ...reporting import ExperimentResult, Row
from ..registry import get_scenario
from ..spec import ScenarioInstance

#: Parameter grid: name -> candidate values.
Grid = Mapping[str, Sequence[Any]]

#: How a sweep may serve each run's workload.
SERVING_MODES = ("protocol", "campaign")


@dataclass(frozen=True)
class RunKey:
    """The identity of one sweep run: (scenario, params, seed[, serving]).

    ``params`` is stored as sorted items so keys are hashable, orderable,
    and canonically serialisable.  ``serving`` is only set when a sweep
    *overrides* the scenario's own serve mode — the default ``None``
    keeps tokens (and therefore resume caches) from pre-override sweeps
    valid.
    """

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    serving: Optional[str] = None

    @classmethod
    def make(
        cls,
        scenario: str,
        params: Mapping[str, Any],
        seed: int,
        *,
        serving: Optional[str] = None,
    ) -> "RunKey":
        return cls(
            scenario=scenario,
            params=tuple(sorted(params.items())),
            seed=int(seed),
            serving=serving,
        )

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def canonical(self) -> str:
        """A stable JSON encoding of the key (cache/cache-file identity)."""
        payload: Dict[str, Any] = {
            "scenario": self.scenario,
            "params": self.params_dict(),
            "seed": self.seed,
        }
        if self.serving is not None:
            payload["serving"] = self.serving
        return json.dumps(payload, sort_keys=True, default=str)

    def token(self) -> str:
        """Filesystem-safe digest of :meth:`canonical`."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep.

    Attributes:
        scenarios: registered scenario names (each validated up front).
        grid: parameter name -> values; the cross product is taken.  Every
            name must be a parameter of every swept scenario.
        seeds: replication seeds; each grid point runs once per seed.
        serving: how every run serves its workload — ``"protocol"`` admits
            tasks one at a time (the Fig. 3 protocol), ``"campaign"``
            plays the full arrival timeline on the simulation engine so
            bursts, contention, and fault timelines matter.  ``None``
            (the default) lets each scenario's own ``serve`` mode decide,
            exactly as before the option existed.
    """

    scenarios: Tuple[str, ...]
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (0,)
    serving: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigurationError("a sweep needs at least one scenario")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ConfigurationError(
                f"duplicate scenario names in sweep: {self.scenarios}"
            )
        if not self.seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            # Duplicates would alias to one RunKey (one cache entry, one
            # sink write) while the result re-emitted rows per
            # occurrence — fresh and resumed sweeps would disagree.
            raise ConfigurationError(
                f"duplicate seeds in sweep: {self.seeds}"
            )
        if self.serving is not None and self.serving not in SERVING_MODES:
            raise ConfigurationError(
                f"serving must be one of {SERVING_MODES} or None, "
                f"got {self.serving!r}"
            )
        for name, values in self.grid.items():
            if not values:
                raise ConfigurationError(
                    "every grid dimension needs at least one value"
                )
            unique = []
            for value in values:
                if any(value == seen for seen in unique):
                    raise ConfigurationError(
                        f"duplicate values in grid dimension {name!r}: "
                        f"{list(values)}"
                    )
                unique.append(value)


def expand_grid(grid: Grid) -> List[Dict[str, Any]]:
    """The cross product of a grid, in sorted-key lexicographic order.

    An empty grid yields one empty parameter dict (the scenario defaults).
    """
    names = sorted(grid)
    combos = itertools.product(*(grid[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def _spec_serving(spec) -> str:
    """A spec's native serve mode in sweep vocabulary."""
    return "campaign" if spec.serve == "campaign" else "protocol"


def expand_runs(config: SweepConfig) -> List[RunKey]:
    """Every RunKey of a sweep, validated against each scenario's params.

    Keys carry the *merged* parameters (defaults overlaid with the grid
    point), not just the overrides: merging validates unknown keys and
    bad types up front, and it makes the resume-cache identity sensitive
    to a scenario's defaults — edit a default and cached rows for the
    old definition stop matching instead of being served silently.  A
    ``config.serving`` override lands on the key (and hence the cache
    identity) only when it actually changes the scenario's mode.
    """
    keys: List[RunKey] = []
    for name in config.scenarios:
        spec = get_scenario(name)
        native = _spec_serving(spec)
        effective = config.serving or native
        if effective == "protocol" and spec.fault_profile is not None:
            raise ConfigurationError(
                f"scenario {name!r} carries a time-driven fault profile "
                "and cannot be served serving='protocol'; use 'campaign'"
            )
        serving = None if effective == native else effective
        for params in expand_grid(config.grid):
            for seed in config.seeds:
                keys.append(
                    RunKey.make(
                        name, spec.merge_params(params), seed, serving=serving
                    )
                )
    return keys


# ---------------------------------------------------------------------------
# Executing one run
# ---------------------------------------------------------------------------

def _scalar(value: Any) -> Any:
    """Parameters as row columns: keep JSON scalars, stringify the rest."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _serve(instance: ScenarioInstance, scheduler) -> Row:
    """Serve the instance's workload one task at a time; aggregate metrics."""
    served, blocked = serve_sequential(
        orchestrator_for(instance, scheduler), instance.workload
    )

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "scheduler": scheduler.name,
        "served": len(served),
        "blocked": blocked,
        "round_ms": mean([r.round_latency.total_ms for _, r in served]),
        "bandwidth_gbps": mean([r.consumed_bandwidth_gbps for _, r in served]),
        "failed_links": len(instance.failed_links),
    }


def _serve_campaign(instance: ScenarioInstance, scheduler) -> Row:
    """Play the workload's full arrival timeline on the simulation engine.

    Used for campaign-served runs (the bursty families, and any sweep
    with ``serving="campaign"``): tasks arrive at their generated times
    and contend for capacity, so burst parameters actually shape the
    results — ``makespan_ms`` most of all.  When the instance carries a
    fault timeline it is played interleaved with the arrivals, and the
    run's availability metrics (downtime, interruptions, reschedules,
    time-to-recover) become row columns.
    """
    outcome = campaign_runner_for(instance, scheduler).run()
    row = {
        "scheduler": scheduler.name,
        "served": outcome.completed,
        "blocked": outcome.blocked,
        "round_ms": outcome.mean_round_ms,
        "makespan_ms": outcome.makespan_ms,
        "failed_links": len(instance.failed_links),
    }
    if outcome.deadline_tasks:
        # Conditional, like availability below: rows from workloads
        # without deadline classes keep their legacy shape.
        row["deadline_tasks"] = outcome.deadline_tasks
        row["deadline_misses"] = outcome.deadline_misses
    if outcome.availability is not None:
        row.update(outcome.availability)
    return row


def execute_run(key: RunKey) -> List[Row]:
    """Run one (scenario, params, seed) under both schedulers.

    Each scheduler gets a freshly instantiated scenario (identical seed,
    hence identical network/failures/workload), mirroring the fig. 3
    protocol.  The key's ``serving`` override, when present, decides the
    serve mode instead of the spec.  Top-level so pool workers can
    unpickle it by reference.
    """
    spec = get_scenario(key.scenario)
    mode = key.serving or _spec_serving(spec)
    serve = _serve_campaign if mode == "campaign" else _serve
    prefix = {"scenario": key.scenario, "seed": key.seed}
    if key.serving is not None:
        prefix["serving"] = key.serving
    prefix.update(
        (name, _scalar(value)) for name, value in sorted(key.params)
    )
    rows: List[Row] = []
    for scheduler in (FixedScheduler(), FlexibleScheduler()):
        with obs.span("run.build", scenario=key.scenario, seed=key.seed):
            instance = spec.instantiate(key.params_dict(), seed=key.seed)
        with obs.span(
            "run.schedule",
            scenario=key.scenario,
            scheduler=scheduler.name,
            serving=mode,
        ):
            rows.append({**prefix, **serve(instance, scheduler)})
        if obs.active() is not None:
            cache = peek_cache(instance.network)
            if cache is not None:
                # The instance's cache is the run's own: its counters
                # are this run's traffic.
                for stat, count in cache.stats.as_dict().items():
                    if count:
                        obs.inc(
                            f"pathcache.{stat}",
                            count,
                            scheduler=scheduler.name,
                        )
    return rows


# ---------------------------------------------------------------------------
# The per-run JSON cache (also the distributed backend's shared store)
# ---------------------------------------------------------------------------

def cache_path(cache_dir: str, key: RunKey) -> str:
    return os.path.join(cache_dir, f"run-{key.token()}.json")


def load_cached(cache_dir: str, key: RunKey) -> Optional[List[Row]]:
    path = cache_path(cache_dir, key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("key") != key.canonical():
        return None
    rows = payload.get("rows")
    return rows if isinstance(rows, list) else None


def store_cached(cache_dir: str, key: RunKey, rows: List[Row]) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    payload = {"key": key.canonical(), "rows": rows}
    path = cache_path(cache_dir, key)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Ordered recording
# ---------------------------------------------------------------------------

class OrderedRecorder:
    """Re-sequences backend completions into run-key submission order.

    Backends may finish runs in any order (the socket queue certainly
    does) and may deliver from multiple threads; the recorder buffers
    out-of-order results and invokes the callback for the longest ready
    prefix, so cache files and sink writes always stream in the same
    deterministic order as a serial run.  Duplicate deliveries of a key
    (e.g. a re-queued distributed run finishing twice) are ignored.
    """

    def __init__(
        self,
        keys: Sequence[RunKey],
        callback: Callable[[RunKey, List[Row]], None],
    ) -> None:
        self._order: List[RunKey] = list(keys)
        self._expected = set(self._order)
        self._callback = callback
        self._buffered: Dict[RunKey, List[Row]] = {}
        self._flushed: set = set()
        self._next = 0
        self._lock = threading.Lock()

    def emit(self, key: RunKey, rows: List[Row]) -> None:
        with self._lock:
            if key not in self._expected:
                raise ConfigurationError(
                    f"backend reported a run the sweep never submitted: "
                    f"{key.canonical()}"
                )
            if key in self._flushed or key in self._buffered:
                return
            self._buffered[key] = rows
            while self._next < len(self._order):
                head = self._order[self._next]
                if head not in self._buffered:
                    break
                self._callback(head, self._buffered.pop(head))
                self._flushed.add(head)
                self._next += 1

    def check_complete(self) -> None:
        with self._lock:
            missing = len(self._order) - len(self._flushed)
        if missing:
            raise ConfigurationError(
                f"backend finished without reporting {missing} of "
                f"{len(self._order)} runs"
            )


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------

def run_sweep(
    config: SweepConfig,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    name: str = "sweep",
    jsonl_path: Optional[str] = None,
    backend: Optional[Any] = None,
    sink: Optional[Any] = None,
    collect: Optional[Any] = None,
) -> ExperimentResult:
    """Execute a sweep and collect every run's rows, in run-key order.

    This is a thin facade over the three layers: the engine expands and
    caches, a :class:`~repro.scenarios.sweep.backends.SweepBackend`
    executes the missing runs, and every finished run streams through
    the configured :class:`~repro.scenarios.sweep.sinks.ResultSink`\\ s.

    Args:
        config: scenarios × grid × seeds (× serving) to expand.
        workers: parallelism hint — ``1`` runs serially in-process,
            more selects a process pool (or sizes an explicitly named
            backend).  Results are identical either way — only
            wall-clock differs.
        cache_dir: when given, finished runs are persisted there and
            reruns load them instead of recomputing (resume-on-rerun).
            The socket backend announces it to workers so the cache
            doubles as the sweep's shared result store.
        name: the returned :class:`ExperimentResult`'s name.
        jsonl_path: shorthand for attaching a
            :class:`~repro.scenarios.sweep.sinks.JsonlSink` at this
            path (kept for backward compatibility; composes with
            ``sink``).
        backend: a :class:`SweepBackend` instance, one of the names
            ``"serial"`` / ``"pool"`` / ``"socket"``, or ``None`` to
            derive serial-vs-pool from ``workers`` exactly as before
            backends existed.
        sink: a :class:`ResultSink` instance receiving every run's rows
            as the run completes (cache hits first), in run-key order.
        collect: distributed trace collection — a path for the merged
            campaign trace (a rotation-aware
            :class:`~repro.obs.collect.TraceCollector` is created and
            closed here) or a ready collector (borrowed: the caller
            closes it).  Every executed run then runs under a per-run
            capture registry and its spans/counters merge, skew-
            normalised, into one campaign trace — strictly out-of-band;
            rows/sinks are byte-identical with collection on or off.
    """
    from ...obs.collect import TraceCollector
    from .backends import resolve_backend
    from .sinks import JsonlSink, ResultSink

    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    collector: Optional[TraceCollector] = None
    owns_collector = False
    if collect is not None:
        if isinstance(collect, TraceCollector):
            collector = collect
        elif isinstance(collect, str):
            collector = TraceCollector(collect, sweep=name)
            owns_collector = True
        else:
            raise ConfigurationError(
                f"collect must be a trace path or a TraceCollector, "
                f"got {collect!r}"
            )
    keys = expand_runs(config)
    rows_by_key: Dict[RunKey, List[Row]] = {}
    if cache_dir is not None:
        for key in keys:
            cached = load_cached(cache_dir, key)
            if cached is not None:
                rows_by_key[key] = cached
    missing = [key for key in keys if key not in rows_by_key]
    obs.inc("sweep.runs_total", len(keys), sweep=name)
    obs.inc("sweep.resume_hits", len(keys) - len(missing), sweep=name)
    obs.inc("sweep.runs_executed", len(missing), sweep=name)

    sinks: List[ResultSink] = []
    if jsonl_path is not None:
        sinks.append(JsonlSink(jsonl_path))
    if sink is not None:
        sinks.append(sink)
    opened: List[ResultSink] = []
    try:
        for each in sinks:
            each.open()
            opened.append(each)
        for key in keys:
            if key in rows_by_key:
                for each in sinks:
                    each.write_run(key, rows_by_key[key])

        if missing:
            def record(key: RunKey, rows: List[Row]) -> None:
                drain0 = time.perf_counter()
                with obs.span("run.drain", scenario=key.scenario):
                    rows_by_key[key] = rows
                    if cache_dir is not None:
                        store_cached(cache_dir, key, rows)
                    for each in sinks:
                        each.write_run(key, rows)
                if collector is not None:
                    collector.on_drain(
                        key, (time.perf_counter() - drain0) * 1000.0
                    )

            recorder = OrderedRecorder(missing, record)
            resolved = resolve_backend(backend, workers=workers)
            with obs.span("sweep", sweep=name, runs=len(missing)):
                if collector is not None:
                    resolved.execute(
                        missing,
                        recorder.emit,
                        cache_dir=cache_dir,
                        collector=collector,
                    )
                else:
                    resolved.execute(
                        missing, recorder.emit, cache_dir=cache_dir
                    )
            recorder.check_complete()
    except BaseException:
        # A failed sweep must not leave sinks holding resources, but a
        # buffering sink also must not fabricate a complete-looking
        # artifact from partial data — abort() instead of close().
        for each in opened:
            try:
                each.abort()
            except Exception:
                pass
        if owns_collector:
            try:
                collector.close()
            except Exception:
                pass
        raise
    for each in opened:
        each.close()
    if collector is not None:
        collector.finish(
            runs_total=len(keys),
            runs_executed=len(missing),
            resume_hits=len(keys) - len(missing),
        )
        if owns_collector:
            collector.close()

    parameters: Dict[str, Any] = {
        "scenarios": list(config.scenarios),
        "grid": {k: list(v) for k, v in sorted(config.grid.items())},
        "seeds": list(config.seeds),
    }
    if config.serving is not None:
        parameters["serving"] = config.serving
    result = ExperimentResult(
        name=name,
        description=(
            "scenario sweep over "
            + ", ".join(config.scenarios)
        ),
        parameters=parameters,
    )
    for key in keys:
        for row in rows_by_key[key]:
            result.add(**row)
    return result

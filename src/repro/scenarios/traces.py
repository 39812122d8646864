"""Trace-shaped workload series: load, save, synthesise, modulate.

Closed-form workloads miss what aggregate traffic actually looks like:
MAWI/CAIDA-style captures show heavy-tailed per-epoch rates riding a
diurnal cycle, punctuated by flash crowds.  This module makes that
phenomenology a first-class workload input:

* :class:`TraceSeries` — a per-epoch (arrival count, mean demand)
  series, loadable from CSV/JSON captures and savable back;
* :func:`synthesize_mawi` — a deterministic synthesiser emitting a
  MAWI-like series (log-free: Pareto burst multipliers over a sinusoidal
  diurnal envelope) from a handful of reported parameters and one named
  RNG stream;
* :func:`diurnal_arrivals` / :func:`flash_crowd` — modulators that
  re-time any task list: the first warps arrivals through a sinusoidal
  intensity (an RNG-free measure change, so it composes with any base
  workload without perturbing its streams), the second re-times a
  random fraction of tasks into one tight spike window.

Everything here is a pure function of its inputs; the scenario layer
(:mod:`repro.scenarios.workloads`) wires these into registered workload
builders.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..tasks.aitask import AITask


def _finite_number(value: object) -> bool:
    """True for an int or float (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class TraceSeries:
    """A per-epoch arrival/demand series.

    Attributes:
        name: series label (file stem for loaded traces).
        epoch_ms: epoch duration; epoch ``e`` spans
            ``[e * epoch_ms, (e + 1) * epoch_ms)``.
        arrivals: tasks arriving in each epoch.
        demand_gbps: mean per-task demand of each epoch's arrivals,
            stored as floats.
    """

    name: str
    epoch_ms: float
    arrivals: Tuple[int, ...]
    demand_gbps: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (_finite_number(self.epoch_ms) and self.epoch_ms > 0):
            raise ConfigurationError(
                f"trace epoch_ms must be a finite number > 0, "
                f"got {self.epoch_ms!r}"
            )
        if not self.arrivals:
            raise ConfigurationError("a trace needs at least one epoch")
        if len(self.arrivals) != len(self.demand_gbps):
            raise ConfigurationError(
                f"trace {self.name!r}: {len(self.arrivals)} arrival epochs "
                f"vs {len(self.demand_gbps)} demand epochs"
            )
        for count in self.arrivals:
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ConfigurationError(
                    f"trace {self.name!r}: arrivals must be ints >= 0, "
                    f"got {count!r}"
                )
        if self.total_tasks < 1:
            raise ConfigurationError(
                f"trace {self.name!r}: needs at least one arrival"
            )
        for demand in self.demand_gbps:
            if not (_finite_number(demand) and demand > 0):
                raise ConfigurationError(
                    f"trace {self.name!r}: demands must be finite numbers "
                    f"> 0 Gbps, got {demand!r}"
                )
        object.__setattr__(
            self, "demand_gbps", tuple(float(d) for d in self.demand_gbps)
        )

    @property
    def n_epochs(self) -> int:
        return len(self.arrivals)

    @property
    def total_tasks(self) -> int:
        return sum(self.arrivals)

    @property
    def horizon_ms(self) -> float:
        return self.n_epochs * self.epoch_ms


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def save_trace(series: TraceSeries, path: str) -> None:
    """Write a series to ``path`` (format chosen by extension).

    ``.json`` writes a single object; ``.csv`` writes one row per epoch
    with ``epoch_ms`` repeated as a column (CSV has no header metadata).
    Floats round-trip exactly — Python's float repr is shortest-exact.
    """
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        payload = {
            "name": series.name,
            "epoch_ms": series.epoch_ms,
            "epochs": [
                {"arrivals": count, "demand_gbps": demand}
                for count, demand in zip(series.arrivals, series.demand_gbps)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif ext == ".csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch_ms", "arrivals", "demand_gbps"])
            for count, demand in zip(series.arrivals, series.demand_gbps):
                writer.writerow([repr(float(series.epoch_ms)), count, repr(float(demand))])
    else:
        raise ConfigurationError(
            f"trace files must be .json or .csv, got {path!r}"
        )


def load_trace(path: str) -> TraceSeries:
    """Read a series from a ``.json`` or ``.csv`` file (see :func:`save_trace`)."""
    ext = os.path.splitext(path)[1].lower()
    name = os.path.splitext(os.path.basename(path))[0]
    if not os.path.exists(path):
        raise ConfigurationError(f"trace file not found: {path!r}")
    if ext == ".json":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise ConfigurationError(
                    f"trace file {path!r} is not valid JSON: {exc}"
                ) from None
        if not isinstance(payload, dict) or "epochs" not in payload:
            raise ConfigurationError(
                f"trace file {path!r}: expected an object with an "
                "'epochs' list"
            )
        epochs = payload["epochs"]
        try:
            # Arrivals and demands pass through unconverted: TraceSeries
            # rejects a non-int count (1.7, true) and a non-number demand
            # (true, "2"), as the CSV loader's int()/float() do.
            arrivals = tuple(epoch["arrivals"] for epoch in epochs)
            demands = tuple(epoch["demand_gbps"] for epoch in epochs)
            epoch_ms = payload["epoch_ms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"trace file {path!r}: malformed epoch entry: {exc}"
            ) from None
        return TraceSeries(
            name=str(payload.get("name", name)),
            # Only a finite number is converted: float() would also take
            # a bool or a string (true -> 1.0, "5" -> 5.0), which
            # TraceSeries rejects when passed through as is.
            epoch_ms=float(epoch_ms) if _finite_number(epoch_ms) else epoch_ms,
            arrivals=arrivals,
            demand_gbps=demands,
        )
    if ext == ".csv":
        rows: List[Tuple[float, int, float]] = []
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            for line, row in enumerate(reader, start=2):
                try:
                    rows.append(
                        (
                            float(row["epoch_ms"]),
                            int(row["arrivals"]),
                            float(row["demand_gbps"]),
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"trace file {path!r} line {line}: {exc}"
                    ) from None
        if not rows:
            raise ConfigurationError(f"trace file {path!r} has no epochs")
        epoch_values = {epoch for epoch, _, _ in rows}
        if len(epoch_values) != 1:
            raise ConfigurationError(
                f"trace file {path!r}: epoch_ms must be constant, "
                f"got {sorted(epoch_values)}"
            )
        return TraceSeries(
            name=name,
            epoch_ms=rows[0][0],
            arrivals=tuple(count for _, count, _ in rows),
            demand_gbps=tuple(demand for _, _, demand in rows),
        )
    raise ConfigurationError(f"trace files must be .json or .csv, got {path!r}")


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the MAWI-like synthesiser.

    Attributes:
        epochs: series length.
        epoch_ms: epoch duration.
        mean_arrivals: long-run mean arrivals per epoch (pre-modulation).
        mean_demand_gbps: long-run mean per-task demand.
        pareto_alpha: tail index of the per-epoch burst multipliers
            (must exceed 1 for a finite mean; smaller = heavier tail).
        diurnal_amplitude: depth of the sinusoidal diurnal cycle, in
            [0, 1): epoch rates swing between ``1 - A`` and ``1 + A``
            times the mean.
        diurnal_period_epochs: epochs per diurnal cycle.
        max_arrivals_per_epoch: hard cap on one epoch's arrivals (keeps
            a single heavy-tail draw from exploding the task count).
    """

    epochs: int = 24
    epoch_ms: float = 1_000.0
    mean_arrivals: float = 2.0
    mean_demand_gbps: float = 10.0
    pareto_alpha: float = 1.8
    diurnal_amplitude: float = 0.6
    diurnal_period_epochs: int = 24
    max_arrivals_per_epoch: int = 50

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.epoch_ms <= 0:
            raise ConfigurationError(
                f"epoch_ms must be > 0, got {self.epoch_ms}"
            )
        if self.mean_arrivals <= 0:
            raise ConfigurationError(
                f"mean_arrivals must be > 0, got {self.mean_arrivals}"
            )
        if self.mean_demand_gbps <= 0:
            raise ConfigurationError(
                f"mean_demand_gbps must be > 0, got {self.mean_demand_gbps}"
            )
        if self.pareto_alpha <= 1.0:
            raise ConfigurationError(
                f"pareto_alpha must be > 1 for a finite mean, "
                f"got {self.pareto_alpha}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError(
                f"diurnal_amplitude must lie in [0, 1), "
                f"got {self.diurnal_amplitude}"
            )
        if self.diurnal_period_epochs < 2:
            raise ConfigurationError(
                f"diurnal_period_epochs must be >= 2, "
                f"got {self.diurnal_period_epochs}"
            )
        if self.max_arrivals_per_epoch < 1:
            raise ConfigurationError(
                f"max_arrivals_per_epoch must be >= 1, "
                f"got {self.max_arrivals_per_epoch}"
            )


def synthesize_mawi(config: SynthConfig, rng) -> TraceSeries:
    """Draw a MAWI-like per-epoch series from ``rng``.

    Each epoch's arrival rate is the long-run mean times a sinusoidal
    diurnal factor times an independent mean-one Pareto burst
    multiplier — heavy-tailed rates on a diurnal envelope, the two
    leading-order phenomena of aggregate Internet traffic.  The
    fractional part of each rate is resolved with one Bernoulli draw so
    expected counts match the rate without a Poisson sampler.  Demands
    get their own Pareto multiplier per epoch.  At least one task is
    guaranteed (an all-quiet series is not a workload).
    """
    alpha = config.pareto_alpha
    mean_one = (alpha - 1.0) / alpha  # scales paretovariate to mean 1
    arrivals: List[int] = []
    demands: List[float] = []
    for epoch in range(config.epochs):
        diurnal = 1.0 + config.diurnal_amplitude * math.sin(
            2.0 * math.pi * epoch / config.diurnal_period_epochs
        )
        burst = mean_one * rng.paretovariate(alpha)
        rate = config.mean_arrivals * diurnal * burst
        count = int(rate)
        if rng.random() < rate - count:
            count += 1
        arrivals.append(min(config.max_arrivals_per_epoch, count))
        demand_burst = mean_one * rng.paretovariate(alpha)
        demands.append(round(config.mean_demand_gbps * demand_burst, 6))
    if sum(arrivals) < 1:
        arrivals[0] = 1
    return TraceSeries(
        name="mawi-synth",
        epoch_ms=config.epoch_ms,
        arrivals=tuple(arrivals),
        demand_gbps=tuple(demands),
    )


# ---------------------------------------------------------------------------
# Modulators
# ---------------------------------------------------------------------------

def _warp_time(t: float, period_ms: float, amplitude: float) -> float:
    """Solve ``Lambda(s) = t`` for the sinusoidal cumulative intensity.

    With intensity ``lambda(s) = 1 + A sin(2 pi s / P)`` the cumulative
    ``Lambda(s) = s + (A P / 2 pi)(1 - cos(2 pi s / P))`` is strictly
    increasing for ``A < 1``; mapping each homogeneous arrival ``t`` to
    ``s = Lambda^{-1}(t)`` yields arrivals whose density follows the
    intensity (the standard time-change), deterministically — no RNG.
    """
    swing = amplitude * period_ms / math.pi  # |Lambda(s) - s| <= swing
    lo, hi = max(0.0, t - swing), t + swing

    def cumulative(s: float) -> float:
        return s + (amplitude * period_ms / (2.0 * math.pi)) * (
            1.0 - math.cos(2.0 * math.pi * s / period_ms)
        )

    for _ in range(60):
        mid = (lo + hi) / 2.0
        if cumulative(mid) < t:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def diurnal_arrivals(
    tasks: Sequence[AITask], *, period_ms: float, amplitude: float
) -> Tuple[AITask, ...]:
    """Re-time arrivals through a sinusoidal diurnal intensity.

    A deterministic measure change: the relative order of arrivals is
    preserved while their density swings between ``1 - A`` and
    ``1 + A`` across each period.  RNG-free, so it composes over any
    base workload without shifting its named streams.
    """
    if period_ms <= 0:
        raise ConfigurationError(
            f"diurnal period_ms must be > 0, got {period_ms}"
        )
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError(
            f"diurnal amplitude must lie in [0, 1), got {amplitude}"
        )
    return tuple(
        dataclasses.replace(
            task,
            arrival_ms=round(
                _warp_time(task.arrival_ms, period_ms, amplitude), 6
            ),
        )
        for task in tasks
    )


def flash_crowd(
    tasks: Sequence[AITask],
    rng,
    *,
    time_ms: float,
    width_ms: float,
    fraction: float,
) -> Tuple[AITask, ...]:
    """Re-time a random fraction of tasks into one tight spike window.

    Each task independently joins the crowd with probability
    ``fraction``; joiners arrive uniformly inside
    ``[time_ms, time_ms + width_ms)``.  Two draws per task — membership
    then offset — keep the draw count fixed regardless of outcomes, so
    one task's coin flip never shifts another's spike position.
    """
    if time_ms < 0:
        raise ConfigurationError(f"flash time_ms must be >= 0, got {time_ms}")
    if width_ms <= 0:
        raise ConfigurationError(
            f"flash width_ms must be > 0, got {width_ms}"
        )
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(
            f"flash fraction must lie in (0, 1], got {fraction}"
        )
    retimed: List[AITask] = []
    for task in tasks:
        joins = rng.random() < fraction
        offset = rng.random() * width_ms
        if joins:
            task = dataclasses.replace(
                task, arrival_ms=round(time_ms + offset, 6)
            )
        retimed.append(task)
    return tuple(retimed)


def epoch_arrival_times(
    series: TraceSeries, rng
) -> Tuple[float, ...]:
    """Concrete arrival instants for a series: uniform inside each epoch.

    Offsets are drawn per epoch and sorted within it, so arrivals are
    non-decreasing inside an epoch while the cross-epoch shape follows
    the series exactly.
    """
    times: List[float] = []
    for epoch, count in enumerate(series.arrivals):
        start = epoch * series.epoch_ms
        offsets = sorted(rng.random() for _ in range(count))
        times.extend(
            round(start + offset * series.epoch_ms, 6) for offset in offsets
        )
    return tuple(times)


def epoch_demands(series: TraceSeries) -> Tuple[float, ...]:
    """Per-task demand for each arrival, in arrival order."""
    demands: List[float] = []
    for count, demand in zip(series.arrivals, series.demand_gbps):
        demands.extend([demand] * count)
    return tuple(demands)

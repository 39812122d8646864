"""Figure 3: latency (3a) and consumed bandwidth (3b) vs local models.

Protocol, mirroring the paper's evaluation:

* a metro mesh with ROADMs, grooming routers, and servers (the Fig. 2
  testbed's shape);
* background live traffic injected by the traffic generator;
* 30 AI tasks per point, served one at a time (admit → evaluate →
  complete), so every task sees the same background conditions and the
  averages are clean;
* the sweep variable is the number of local models per task;
* both schedulers see identical workloads and identical background load
  (fresh, identically-seeded network per scheduler).

Reported per (scheduler, n_locals): **mean round latency** (training +
communication, the Fig. 3a metric), **mean task bandwidth** (Fig. 3b), and
supporting columns (broadcast/upload split, blocked count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.base import Scheduler
from ..core.evaluation import EvaluationConfig
from ..core.fixed import FixedScheduler
from ..core.flexible import FlexibleScheduler
from ..core.simulation import RoundExecutor
from ..errors import ConfigurationError
from ..network.graph import Network
from ..network.topology import metro_mesh
from ..orchestrator.campaign import serve_sequential
from ..orchestrator.orchestrator import Orchestrator
from ..reporting import ExperimentResult
from ..sim.engine import Simulator
from ..tasks.workload import WorkloadConfig
from .common import seeded_workload

#: Factory signature for the evaluation fabric.
TopologyFactory = Callable[[], Network]


def _default_topology() -> Network:
    return metro_mesh(n_sites=16, servers_per_site=2)


@dataclass(frozen=True)
class Fig3Config:
    """Sweep parameters for both Fig. 3 panels.

    Attributes:
        n_locals_values: the x-axis (paper sweeps up to 15).
        n_tasks: tasks averaged per point (paper: 30).
        seed: master seed; workloads/traffic derive from it.
        background_flows: persistent background flows injected per run.
        model_names: task model mix.
        demand_gbps: per-flow rate request.
        rounds: training rounds per task.
        topology: fabric factory; defaults to a 16-site metro mesh.
        evaluation: latency-model configuration.
        measurement: "analytic" uses the closed-form evaluator (fast,
            the default); "executed" runs each task's round as events on
            the simulation engine (the ground-truth cross-check).
    """

    n_locals_values: Tuple[int, ...] = (3, 6, 9, 12, 15)
    n_tasks: int = 30
    seed: int = 7
    background_flows: int = 40
    model_names: Tuple[str, ...] = ("resnet18", "resnet50", "bert-base")
    demand_gbps: float = 10.0
    rounds: int = 5
    topology: TopologyFactory = field(default=_default_topology)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    measurement: str = "analytic"

    def __post_init__(self) -> None:
        if not self.n_locals_values:
            raise ConfigurationError("n_locals_values must be non-empty")
        if any(k < 1 for k in self.n_locals_values):
            raise ConfigurationError("every n_locals must be >= 1")
        if self.n_tasks < 1:
            raise ConfigurationError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if self.measurement not in ("analytic", "executed"):
            raise ConfigurationError(
                f"measurement must be 'analytic' or 'executed', got "
                f"{self.measurement!r}"
            )


def _schedulers() -> Sequence[Scheduler]:
    return (FixedScheduler(), FlexibleScheduler())


def _run_point(
    config: Fig3Config, scheduler: Scheduler, n_locals: int
) -> Dict[str, float]:
    """Serve the task mix for one (scheduler, n_locals) point."""
    network = config.topology()
    workload, _ = seeded_workload(
        network,
        config.seed,
        WorkloadConfig(
            n_tasks=config.n_tasks,
            n_locals=n_locals,
            model_names=config.model_names,
            demand_gbps=config.demand_gbps,
            rounds=config.rounds,
        ),
        background_flows=config.background_flows,
    )
    served, blocked = serve_sequential(
        Orchestrator(network, scheduler, evaluation=config.evaluation),
        workload,
    )
    if not served:
        raise ConfigurationError(
            f"every task blocked at n_locals={n_locals} for "
            f"{scheduler.name}; lower demand or background load"
        )

    def latencies(record, report) -> Tuple[float, float, float, float]:
        """(round, broadcast, upload, total) ms of one served task."""
        if config.measurement == "analytic":
            latency = report.round_latency
            return (
                latency.total_ms,
                latency.broadcast_ms,
                latency.upload_ms,
                report.total_latency_ms,
            )
        executed = RoundExecutor(
            network, record.schedule, config.evaluation
        ).execute_round(Simulator())
        return (
            executed.total_ms,
            executed.broadcast_done_ms,
            executed.upload_done_ms - executed.broadcast_done_ms,
            record.task.rounds * executed.total_ms,
        )

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values)

    round_ms, broadcast_ms, upload_ms, total_ms = zip(
        *(latencies(record, report) for record, report in served)
    )
    return {
        "served": len(served),
        "blocked": blocked,
        "round_ms": mean(round_ms),
        "broadcast_ms": mean(broadcast_ms),
        "upload_ms": mean(upload_ms),
        "total_ms": mean(total_ms),
        "bandwidth_gbps": mean(
            [report.consumed_bandwidth_gbps for _, report in served]
        ),
    }


def run_fig3(config: Optional[Fig3Config] = None) -> ExperimentResult:
    """Run the full sweep once; both panels read from the same rows."""
    config = config or Fig3Config()
    result = ExperimentResult(
        name="fig3",
        description=(
            "latency and consumed bandwidth vs number of local models, "
            "fixed (SPFF) vs flexible (MST)"
        ),
        parameters={
            "n_tasks": config.n_tasks,
            "seed": config.seed,
            "background_flows": config.background_flows,
            "demand_gbps": config.demand_gbps,
            "models": list(config.model_names),
        },
    )
    for n_locals in config.n_locals_values:
        for scheduler in _schedulers():
            point = _run_point(config, scheduler, n_locals)
            result.add(scheduler=scheduler.name, n_locals=n_locals, **point)
    return result


def _panel(
    config: Optional[Fig3Config], name: str, description: str, *columns: str
) -> ExperimentResult:
    """One Fig. 3 panel: the full sweep's rows cut to ``columns``."""
    full = run_fig3(config)
    result = ExperimentResult(
        name=name, description=description, parameters=full.parameters
    )
    for row in full.rows:
        result.add(
            **{key: row[key] for key in ("scheduler", "n_locals", *columns)}
        )
    return result


def run_fig3a(config: Optional[Fig3Config] = None) -> ExperimentResult:
    """Fig. 3a — total latency vs number of local models."""
    return _panel(
        config,
        "fig3a",
        "total latency (training + communication) vs local models",
        "round_ms",
        "total_ms",
    )


def run_fig3b(config: Optional[Fig3Config] = None) -> ExperimentResult:
    """Fig. 3b — consumed bandwidth vs number of local models."""
    return _panel(
        config, "fig3b", "consumed bandwidth vs local models", "bandwidth_gbps"
    )

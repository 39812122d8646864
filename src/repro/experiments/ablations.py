"""Ablation experiments for the paper's open challenges and design knobs.

Every ablation follows the same recipe as the figure harnesses: build a
fabric, load it, serve a reproducible workload, report rows.  ``repro
list`` prints the experiment ids.
"""

from __future__ import annotations

from typing import Sequence

from ..core.evaluation import EvaluationConfig, ScheduleEvaluator
from ..core.flexible import FlexibleScheduler
from ..core.rescheduling import ReschedulingPolicy
from ..errors import ConfigurationError
from ..network.auxiliary import AuxiliaryWeights
from ..network.graph import Network
from ..network.topology import metro_mesh, spine_leaf
from ..orchestrator.campaign import serve_sequential
from ..orchestrator.database import TaskStatus
from ..orchestrator.orchestrator import Orchestrator
from ..reporting import ExperimentResult
from ..tasks import selection as selection_strategies
from ..tasks.workload import WorkloadConfig
from ..transport.channel import Channel
from ..transport.protocols import RdmaTransport, TcpTransport
from .common import rounded_mean, seeded_workload


# ----------------------------------------------------------------------
# abl-resched: interruption vs saving trade-off (challenge #1)
# ----------------------------------------------------------------------
def run_rescheduling_ablation(
    interruption_values_ms: Sequence[float] = (0.5, 2.0, 8.0, 32.0, 128.0),
    *,
    n_tasks: int = 12,
    seed: int = 11,
) -> ExperimentResult:
    """Sweep the modelled interruption cost and observe re-scheduling.

    Scenario: tasks are admitted under heavy background traffic (forcing
    detours), then the background load departs.  A cheap interruption lets
    the policy chase the newly freed capacity; an expensive one freezes
    the (now suboptimal) schedules.
    """
    result = ExperimentResult(
        name="abl-resched",
        description="re-scheduling count and savings vs interruption cost",
        parameters={"n_tasks": n_tasks, "seed": seed},
    )
    for interruption_ms in interruption_values_ms:
        network = metro_mesh(n_sites=12, servers_per_site=2)
        workload, traffic = seeded_workload(
            network,
            seed,
            WorkloadConfig(
                n_tasks=n_tasks, n_locals=6, demand_gbps=5.0, rounds=50
            ),
            background_flows=30,
            traffic_rate_gbps=15.0,
        )
        policy = ReschedulingPolicy(interruption_ms=interruption_ms)
        orchestrator = Orchestrator(
            network,
            FlexibleScheduler(),
            rescheduling=policy,
            container_gflops=5_000.0,  # keep placement off the critical path
        )
        before_bandwidth = 0.0
        for task in workload:
            record = orchestrator.admit(task)
            if record.status is TaskStatus.RUNNING:
                before_bandwidth += record.schedule.consumed_bandwidth_gbps

        traffic.clear()  # the network conditions change
        outcomes = orchestrator.reschedule_pass()

        after_bandwidth = sum(
            record.schedule.consumed_bandwidth_gbps
            for record in orchestrator.database.running()
            if record.schedule is not None
        )
        rescheduled = sum(1 for done in outcomes.values() if done)
        result.add(
            interruption_ms=interruption_ms,
            running_tasks=len(outcomes),
            rescheduled=rescheduled,
            bandwidth_before_gbps=round(before_bandwidth, 4),
            bandwidth_after_gbps=round(after_bandwidth, 4),
            bandwidth_saved_gbps=round(before_bandwidth - after_bandwidth, 4),
        )
    return result


# ----------------------------------------------------------------------
# abl-select: client selection strategies (challenge #1)
# ----------------------------------------------------------------------
def run_selection_ablation(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    *,
    n_tasks: int = 20,
    n_locals: int = 12,
    seed: int = 13,
) -> ExperimentResult:
    """Compare selection strategies at several keep-fractions.

    Reported per (strategy, fraction): retained utility fraction, mean
    bandwidth, and mean round latency of the flexible schedules.
    """
    result = ExperimentResult(
        name="abl-select",
        description="client selection: utility retained vs resources saved",
        parameters={"n_tasks": n_tasks, "n_locals": n_locals, "seed": seed},
    )
    strategies = {
        "top-utility": selection_strategies.select_top_utility,
        "random": selection_strategies.select_random,
        "utility-proportional": selection_strategies.utility_proportional,
    }
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction {fraction} not in (0, 1]")
        for strategy_name, strategy in strategies.items():
            network = metro_mesh(n_sites=16, servers_per_site=2)
            workload, _ = seeded_workload(
                network,
                seed,
                WorkloadConfig(
                    n_tasks=n_tasks,
                    n_locals=n_locals,
                    demand_gbps=5.0,
                    with_utility=True,
                ),
            )
            scheduler = FlexibleScheduler()
            evaluator = ScheduleEvaluator(network, EvaluationConfig())
            bandwidth = []
            round_ms = []
            utility_kept = []
            for task in workload:
                full_utility = selection_strategies.selected_utility(task)
                if fraction >= 1.0:
                    chosen = task
                else:
                    chosen = strategy(task, fraction)
                utility_kept.append(
                    selection_strategies.selected_utility(chosen) / full_utility
                )
                schedule = scheduler.schedule(chosen, network)
                report = evaluator.report(schedule)
                bandwidth.append(report.consumed_bandwidth_gbps)
                round_ms.append(report.round_latency.total_ms)
                scheduler.release(schedule, network)
            result.add(
                strategy=strategy_name,
                fraction=fraction,
                utility_kept=rounded_mean(utility_kept),
                bandwidth_gbps=rounded_mean(bandwidth),
                round_ms=rounded_mean(round_ms),
            )
    return result


# ----------------------------------------------------------------------
# abl-rdma: TCP vs RDMA across distances (challenge #2)
# ----------------------------------------------------------------------
def run_transport_ablation(
    distances_km: Sequence[float] = (1.0, 10.0, 100.0, 500.0, 2000.0),
    *,
    model_size_mb: float = 400.0,
    rate_gbps: float = 50.0,
    long_haul_loss: float = 1e-5,
) -> ExperimentResult:
    """Transfer one model over increasing distances under both protocols.

    RDMA wins comfortably at datacenter scale (no CPU, tiny headers);
    its go-back-N recovery erodes the advantage as the bandwidth-delay
    product grows — the challenge-#2 long-distance degradation.
    """
    result = ExperimentResult(
        name="abl-rdma",
        description="TCP vs RDMA transfer time and CPU vs distance",
        parameters={
            "model_size_mb": model_size_mb,
            "rate_gbps": rate_gbps,
            "long_haul_loss": long_haul_loss,
        },
    )
    tcp = TcpTransport(loss_rate=long_haul_loss)
    rdma = RdmaTransport(loss_rate=long_haul_loss)
    for distance in distances_km:
        network = Network("pair")
        network.add_node("A")
        network.add_node("B")
        network.add_link("A", "B", 400.0, distance_km=distance)
        for transport in (tcp, rdma):
            channel = Channel(network, ("A", "B"), rate_gbps, transport)
            estimate = channel.estimate(model_size_mb)
            result.add(
                distance_km=distance,
                protocol=transport.name,
                transfer_ms=round(estimate.total_ms, 4),
                effective_gbps=round(estimate.effective_rate_gbps, 4),
                endpoint_cpu_ms=round(estimate.endpoint_cpu_ms, 4),
            )
    return result


# ----------------------------------------------------------------------
# abl-spineleaf: all-optical spine-leaf vs metro mesh (challenge #3)
# ----------------------------------------------------------------------
def run_spineleaf_ablation(
    *,
    n_tasks: int = 20,
    n_locals: int = 6,
    seed: int = 17,
) -> ExperimentResult:
    """Serve the same task mix on a metro mesh and a spine-leaf fabric."""
    result = ExperimentResult(
        name="abl-spineleaf",
        description="metro mesh vs all-optical spine-leaf, flexible scheduler",
        parameters={"n_tasks": n_tasks, "n_locals": n_locals, "seed": seed},
    )
    fabrics = {
        "metro-mesh": lambda: metro_mesh(n_sites=12, servers_per_site=2),
        "spine-leaf": lambda: spine_leaf(n_spines=4, n_leaves=12, servers_per_leaf=2),
    }
    for fabric_name, factory in fabrics.items():
        network = factory()
        workload, _ = seeded_workload(
            network,
            seed,
            WorkloadConfig(n_tasks=n_tasks, n_locals=n_locals, demand_gbps=10.0),
        )
        served, blocked = serve_sequential(
            Orchestrator(network, FlexibleScheduler()), workload
        )
        reports = [report for _, report in served]
        result.add(
            fabric=fabric_name,
            served=len(reports),
            blocked=blocked,
            round_ms=rounded_mean([r.round_latency.total_ms for r in reports]),
            broadcast_ms=rounded_mean(
                [r.round_latency.broadcast_ms for r in reports]
            ),
            bandwidth_gbps=rounded_mean(
                [r.consumed_bandwidth_gbps for r in reports]
            ),
        )
    return result


# ----------------------------------------------------------------------
# abl-aux: auxiliary-graph weight sweep (design ablation)
# ----------------------------------------------------------------------
def run_auxgraph_ablation(
    alpha_values: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 8.0),
    *,
    beta_latency: float = 1.0,
    n_tasks: int = 20,
    n_locals: int = 8,
    seed: int = 19,
) -> ExperimentResult:
    """Sweep the bandwidth coefficient of the auxiliary-graph weight.

    alpha = 0 routes purely by latency; large alpha trades round latency
    for smaller trees — the curve exposes the weighting knob of the
    auxiliary graph.
    """
    result = ExperimentResult(
        name="abl-aux",
        description="auxiliary-graph weighting: bandwidth vs latency trade",
        parameters={
            "beta_latency": beta_latency,
            "n_tasks": n_tasks,
            "n_locals": n_locals,
            "seed": seed,
        },
    )
    for alpha in alpha_values:
        weights = AuxiliaryWeights(
            alpha_bandwidth=alpha, beta_latency=beta_latency
        )
        network = metro_mesh(n_sites=16, servers_per_site=2)
        workload, _ = seeded_workload(
            network,
            seed,
            WorkloadConfig(n_tasks=n_tasks, n_locals=n_locals, demand_gbps=10.0),
            background_flows=30,
        )
        scheduler = FlexibleScheduler(weights=weights)
        evaluator = ScheduleEvaluator(network, EvaluationConfig())
        bandwidth = []
        round_ms = []
        for task in workload:
            schedule = scheduler.schedule(task, network)
            report = evaluator.report(schedule)
            bandwidth.append(report.consumed_bandwidth_gbps)
            round_ms.append(report.round_latency.total_ms)
            scheduler.release(schedule, network)
        result.add(
            alpha_bandwidth=alpha,
            bandwidth_gbps=rounded_mean(bandwidth),
            round_ms=rounded_mean(round_ms),
        )
    return result

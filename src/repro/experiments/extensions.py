"""Extension experiments: stronger baselines, failures, compression.

These go beyond the poster's own evaluation, covering its stated future
work ("comparison with stronger baselines will come as future works") and
two operational questions a deployment immediately hits: what happens on
link failure, and what fp16 weight compression buys.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Sequence, Tuple

from ..core.baselines import ChainScheduler, KspLoadBalancedScheduler
from ..core.evaluation import ScheduleEvaluator
from ..core.fixed import FixedScheduler
from ..core.flexible import FlexibleScheduler
from ..errors import ConfigurationError
from ..network.topology import metro_mesh
from ..orchestrator.campaign import serve_sequential
from ..orchestrator.database import TaskStatus
from ..orchestrator.orchestrator import Orchestrator
from ..reporting import ExperimentResult
from ..scenarios.sweep import SqliteSink, SweepConfig, run_sweep
from ..sim.rng import RandomStreams
from ..tasks.workload import WorkloadConfig
from .common import rounded_mean, seeded_workload


def run_baselines_comparison(
    *,
    n_locals_values: Sequence[int] = (3, 9, 15),
    n_tasks: int = 20,
    seed: int = 23,
) -> ExperimentResult:
    """All four schedulers on the fig3 protocol.

    Expected shape: chain is bandwidth-minimal but latency-worst at large
    ``k``; ksp-lb beats fixed under contention but still pays per-local
    bandwidth; flexible balances both.
    """
    result = ExperimentResult(
        name="abl-baselines",
        description="fixed vs ksp-lb vs chain vs flexible across locals",
        parameters={"n_tasks": n_tasks, "seed": seed},
    )
    schedulers = (
        FixedScheduler(),
        KspLoadBalancedScheduler(k=3),
        ChainScheduler(),
        FlexibleScheduler(),
    )
    for n_locals in n_locals_values:
        for scheduler in schedulers:
            network = metro_mesh(n_sites=16, servers_per_site=2)
            workload, _ = seeded_workload(
                network,
                seed,
                WorkloadConfig(n_tasks=n_tasks, n_locals=n_locals),
                background_flows=40,
            )
            served, blocked = serve_sequential(
                Orchestrator(network, scheduler), workload
            )
            reports = [report for _, report in served]
            result.add(
                scheduler=scheduler.name,
                n_locals=n_locals,
                served=len(reports),
                blocked=blocked,
                round_ms=rounded_mean(
                    [r.round_latency.total_ms for r in reports]
                ),
                bandwidth_gbps=rounded_mean(
                    [r.consumed_bandwidth_gbps for r in reports]
                ),
            )
    return result


def run_failure_recovery(
    *,
    n_tasks: int = 10,
    n_failures: int = 4,
    seed: int = 29,
) -> ExperimentResult:
    """Fail ring links one by one and measure repair per scheduler.

    Expected shape: both schedulers re-route most tasks on a mesh with
    spare paths; the flexible scheduler's repaired schedules consume less
    bandwidth, so post-failure headroom is larger.
    """
    result = ExperimentResult(
        name="abl-failures",
        description="link-failure repair: re-routed tasks and residual load",
        parameters={"n_tasks": n_tasks, "n_failures": n_failures, "seed": seed},
    )
    for scheduler in (FixedScheduler(), FlexibleScheduler()):
        network = metro_mesh(n_sites=12, servers_per_site=2)
        workload, _ = seeded_workload(
            network,
            seed,
            WorkloadConfig(n_tasks=n_tasks, n_locals=5, demand_gbps=5.0),
        )
        orchestrator = Orchestrator(
            network, scheduler, container_gflops=5_000.0
        )
        for task in workload:
            orchestrator.admit(task)
        running_before = len(orchestrator.database.running())

        repaired = 0
        affected_total = 0
        for i in range(n_failures):
            outcomes = orchestrator.handle_link_failure(
                f"RT-{2 * i}", f"RT-{2 * i + 1}"
            )
            affected_total += len(outcomes)
            repaired += sum(1 for ok in outcomes.values() if ok)
        running_after = len(orchestrator.database.running())
        result.add(
            scheduler=scheduler.name,
            running_before=running_before,
            affected=affected_total,
            repaired=repaired,
            running_after=running_after,
            bandwidth_after_gbps=round(
                sum(
                    record.schedule.consumed_bandwidth_gbps
                    for record in orchestrator.database.running()
                    if record.schedule is not None
                ),
                4,
            ),
        )
    return result


def run_optical_spectrum(
    *,
    n_locals_values: Sequence[int] = (3, 9, 15),
    n_tasks: int = 10,
    seed: int = 37,
) -> ExperimentResult:
    """Spectrum cost: lit wavelength-hops per scheduler (OFC companion
    paper's metric).

    Every inter-site edge of every concurrent schedule is groomed onto
    the ROADM ring through the optical underlay.  Channels are 25 Gbps so
    the schedulers' rate difference translates into lit spectrum.
    Expected shape: the flexible scheduler's smaller trees light fewer
    wavelength-hops, and the gap grows with the number of local models.
    """
    from ..optical.underlay import metro_underlay

    result = ExperimentResult(
        name="abl-optical",
        description="lit wavelength-hops under the optical underlay",
        parameters={"n_tasks": n_tasks, "seed": seed},
    )
    for n_locals in n_locals_values:
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            network = metro_mesh(n_sites=16, servers_per_site=2)
            underlay = metro_underlay(
                network, n_wavelengths=160, channel_gbps=25.0
            )
            workload, _ = seeded_workload(
                network,
                seed,
                WorkloadConfig(n_tasks=n_tasks, n_locals=n_locals, demand_gbps=5.0),
            )
            orchestrator = Orchestrator(
                network, scheduler, container_gflops=5_000.0
            )
            mirrored = 0
            for task in workload:
                record = orchestrator.admit(task)
                if record.status is not TaskStatus.RUNNING:
                    continue
                underlay.mirror_schedule(record.schedule)
                mirrored += 1
            result.add(
                scheduler=scheduler.name,
                n_locals=n_locals,
                tasks_mirrored=mirrored,
                lightpaths=underlay.lit_lightpaths,
                wavelength_hops=underlay.lit_wavelength_hops,
            )
    return result


def run_campaign_comparison(
    *,
    n_tasks: int = 12,
    rounds: int = 8,
    seed: int = 47,
) -> ExperimentResult:
    """Concurrent campaign: makespan and mean round per scheduler.

    Unlike fig3's one-task-at-a-time protocol, here the whole mix runs
    *concurrently* on simulated time with Poisson arrivals, so tasks
    contend with each other for the duration of their training.  Expected
    shape: the flexible scheduler's smaller footprint leaves more room
    for everyone — fewer blocked tasks and a shorter campaign.
    """
    from ..orchestrator.campaign import CampaignRunner

    result = ExperimentResult(
        name="abl-campaign",
        description="concurrent campaign: makespan, rounds, blocking",
        parameters={"n_tasks": n_tasks, "rounds": rounds, "seed": seed},
    )
    for scheduler in (FixedScheduler(), FlexibleScheduler()):
        network = metro_mesh(n_sites=16, servers_per_site=2)
        workload, _ = seeded_workload(
            network,
            seed,
            WorkloadConfig(
                n_tasks=n_tasks,
                n_locals=8,
                rounds=rounds,
                demand_gbps=8.0,
                mean_interarrival_ms=30.0,
            ),
            background_flows=30,
        )
        orchestrator = Orchestrator(
            network, scheduler, container_gflops=5_000.0
        )
        campaign = CampaignRunner(orchestrator, workload).run()
        result.add(
            scheduler=scheduler.name,
            completed=campaign.completed,
            blocked=campaign.blocked,
            makespan_ms=round(campaign.makespan_ms, 4),
            mean_round_ms=round(campaign.mean_round_ms, 4),
        )
    return result


def run_optimality_gap(
    *,
    n_locals_values: Sequence[int] = (3, 4, 5, 6),
    n_samples: int = 15,
    seed: int = 43,
) -> ExperimentResult:
    """Optimality gap of the MST heuristic vs the exact Steiner tree.

    For random terminal sets, compare the flexible scheduler's terminal
    tree weight against the Dreyfus–Wagner optimum under the same
    latency weight.  Expected shape: mean gap far below the worst-case
    2(1 − 1/k) bound — evidence that the poster's MST construction is
    near-optimal on realistic metro fabrics, not just "a heuristic".
    """
    from ..network.routing import LatencyWeightSpec, get_cache
    from ..network.steiner import steiner_tree_cost

    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    network = metro_mesh(n_sites=12, servers_per_site=2)
    servers = network.servers()
    for n_locals in n_locals_values:
        if not 1 <= n_locals < len(servers):
            raise ConfigurationError(
                f"n_locals must be in [1, {len(servers) - 1}] on the "
                f"{len(servers)}-server fabric, got {n_locals}"
            )
    result = ExperimentResult(
        name="abl-optgap",
        description="terminal-MST weight vs exact Steiner optimum",
        parameters={"n_samples": n_samples, "seed": seed},
    )
    spec = LatencyWeightSpec(network)
    cache = get_cache(network)
    rng = RandomStreams(seed).stream("optgap")
    for n_locals in n_locals_values:
        gaps: List[float] = []
        for _ in range(n_samples):
            terminals = rng.sample(servers, n_locals + 1)
            optimum = steiner_tree_cost(network, terminals, spec)
            tree = cache.terminal_tree(terminals[0], terminals[1:], spec)
            gaps.append(tree.weight / optimum if optimum > 0 else 1.0)
        k = n_locals + 1
        result.add(
            n_locals=n_locals,
            samples=n_samples,
            mean_ratio=round(sum(gaps) / len(gaps), 4),
            worst_ratio=round(max(gaps), 4),
            guarantee=round(2.0 * (1.0 - 1.0 / k), 4),
        )
    return result


def run_model_validation(
    *,
    n_locals_values: Sequence[int] = (3, 9, 15),
    seed: int = 41,
) -> ExperimentResult:
    """Cross-check: analytic evaluator vs event-driven executor.

    For each sweep point, one task is scheduled per scheduler and its
    round is both *evaluated* (closed form) and *executed* (dependency
    graph of simulator events).  Expected shape: agreement within a few
    percent everywhere — evidence that the figures rest on two
    independent implementations of the same semantics, not on one
    formula trusted twice.
    """
    from ..core.simulation import RoundExecutor
    from ..sim.engine import Simulator

    result = ExperimentResult(
        name="abl-simcheck",
        description="analytic vs event-driven round latency",
        parameters={"seed": seed},
    )
    for n_locals in n_locals_values:
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            network = metro_mesh(n_sites=16, servers_per_site=2)
            workload, _ = seeded_workload(
                network,
                seed,
                WorkloadConfig(n_tasks=1, n_locals=n_locals),
                background_flows=40,
            )
            task = workload.tasks[0]
            schedule = scheduler.schedule(task, network)
            analytic = ScheduleEvaluator(network).round_latency(schedule).total_ms
            executed = (
                RoundExecutor(network, schedule)
                .execute_round(Simulator())
                .total_ms
            )
            result.add(
                scheduler=scheduler.name,
                n_locals=n_locals,
                analytic_ms=round(analytic, 4),
                executed_ms=round(executed, 4),
                gap_percent=round(100.0 * (executed - analytic) / analytic, 3),
            )
    return result


def run_compression_ablation(
    *,
    n_tasks: int = 20,
    n_locals: int = 9,
    seed: int = 31,
) -> ExperimentResult:
    """fp32 vs fp16 weight exchange (generative-AI model-growth pressure).

    The poster motivates flexible scheduling with rapidly growing model
    sizes; halving the wire format is the other lever.  Expected shape:
    fp16 halves bandwidth-time (transfer components) for both schedulers
    without changing who wins.
    """
    result = ExperimentResult(
        name="abl-fp16",
        description="fp32 vs fp16 weight exchange under both schedulers",
        parameters={"n_tasks": n_tasks, "n_locals": n_locals, "seed": seed},
    )
    for precision in ("fp32", "fp16"):
        for scheduler in (FixedScheduler(), FlexibleScheduler()):
            network = metro_mesh(n_sites=16, servers_per_site=2)
            workload, _ = seeded_workload(
                network,
                seed,
                WorkloadConfig(n_tasks=n_tasks, n_locals=n_locals),
                background_flows=40,
            )
            tasks = (
                workload.tasks
                if precision == "fp32"
                else [
                    replace(task, model=task.model.half_precision())
                    for task in workload
                ]
            )
            served, _ = serve_sequential(
                Orchestrator(network, scheduler), tasks
            )
            latencies = [report.round_latency for _, report in served]
            result.add(
                precision=precision,
                scheduler=scheduler.name,
                served=len(latencies),
                round_ms=rounded_mean([lat.total_ms for lat in latencies]),
                comm_ms=rounded_mean(
                    [lat.broadcast_ms + lat.upload_ms for lat in latencies]
                ),
            )
    return result


def run_resilience_sweep(
    link_mtbf_values: Sequence[float] = (20_000.0, 40_000.0, 80_000.0),
    *,
    n_tasks: int = 12,
    seeds: Tuple[int, ...] = (0,),
    workers: int = 1,
    cache_dir: Optional[str] = None,
    backend: Optional[Any] = None,
    sqlite_path: Optional[str] = None,
) -> ExperimentResult:
    """Fault intensity vs availability/interruption on the metro mesh.

    Sweeps the link MTBF of the ``metro-mesh-flaky-links`` campaign:
    shorter MTBF means more fail/repair churn, so ``availability`` falls
    and ``tasks_interrupted`` / ``fault_blocks`` climb.  The comparison
    of interest is how the two schedulers' ``fault_reschedules`` differ
    — flexible trees give the repair loop more room to re-route.

    ``sqlite_path`` streams every row (availability and makespan
    included) into the queryable SQLite sink with incremental
    aggregates, and ``backend="socket"`` fans the campaign out over a
    distributed work-stealing queue.
    """
    result = run_sweep(
        SweepConfig(
            scenarios=("metro-mesh-flaky-links",),
            grid={
                "link_mtbf_ms": list(link_mtbf_values),
                "n_tasks": [n_tasks],
            },
            seeds=seeds,
        ),
        workers=workers,
        cache_dir=cache_dir,
        backend=backend,
        sink=SqliteSink(sqlite_path) if sqlite_path is not None else None,
        name="resilience-sweep",
    )
    result.description = (
        "availability and task interruption vs link MTBF under "
        "fault-injected campaign serving"
    )
    return result

"""Walkthrough: the scenario registry and the parallel sweep engine.

Run with::

    PYTHONPATH=src python examples/scenario_sweep.py

Covers the full surface: browsing the catalogue, instantiating one
scenario by hand, registering a custom scenario, running a cached
parallel sweep, and replaying a scenario as a campaign timeline.
"""

from __future__ import annotations

import tempfile
import time

from repro.network.topology import metro_ring
from repro.orchestrator import run_scenario
from repro.scenarios import (
    ScenarioSpec,
    SweepConfig,
    get_scenario,
    list_scenarios,
    register,
    run_sweep,
)
from repro.scenarios.workloads import pareto


def browse_the_catalogue() -> None:
    print("== built-in scenarios ==")
    for spec in list_scenarios():
        print(f"  {spec.name:<22s} {spec.description}")
    print()


def instantiate_one() -> None:
    print("== one deterministic instance ==")
    spec = get_scenario("scale-free-hubs")
    instance = spec.instantiate({"n_tasks": 5}, seed=42)
    print(f"  network: {instance.network.name}")
    print(f"  tasks:   {[task.task_id for task in instance.workload]}")
    # Same (params, seed) -> the same instance, in any process.
    again = spec.instantiate({"n_tasks": 5}, seed=42)
    assert [t.local_nodes for t in again.workload] == [
        t.local_nodes for t in instance.workload
    ]
    print("  re-instantiating with the same seed reproduces it exactly")
    print()


def register_a_custom_scenario() -> None:
    print("== registering a custom scenario ==")

    def tiny_ring(params):
        return metro_ring(n_sites=params["n_sites"], servers_per_site=2)

    register(
        ScenarioSpec(
            name="example-ring-pareto",
            description="small ring with heavy-tailed demands",
            topology=tiny_ring,
            workload=pareto,
            defaults={
                "n_sites": 5,
                "n_tasks": 8,
                "n_locals": 3,
                "demand_gbps": 8.0,
                "pareto_alpha": 1.7,
                "demand_cap_gbps": 60.0,
                "background_flows": 5,
            },
            tags=("example",),
        ),
        replace=True,  # keep the walkthrough re-runnable
    )
    print("  registered 'example-ring-pareto'")
    print()


def run_a_cached_parallel_sweep() -> None:
    print("== a cached, parallel sweep ==")
    config = SweepConfig(
        scenarios=("example-ring-pareto", "metro-ring-uniform"),
        grid={"n_locals": [2, 4]},
        seeds=(0, 1),
    )
    with tempfile.TemporaryDirectory() as cache:
        t0 = time.perf_counter()
        result = run_sweep(config, workers=2, cache_dir=cache)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_sweep(config, workers=2, cache_dir=cache)
        warm = time.perf_counter() - t0
    print(result.to_table())
    print(f"  cold run {cold:.2f}s, cached rerun {warm:.3f}s")
    print()


def replay_as_a_campaign() -> None:
    print("== a scenario as a campaign timeline ==")
    outcome = run_scenario("nsfnet-bursty", {"n_tasks": 10}, seed=1)
    print(
        f"  completed {outcome.completed}/10, blocked {outcome.blocked}, "
        f"makespan {outcome.makespan_ms:.0f} ms, "
        f"mean round {outcome.mean_round_ms:.1f} ms"
    )


if __name__ == "__main__":
    browse_the_catalogue()
    instantiate_one()
    register_a_custom_scenario()
    run_a_cached_parallel_sweep()
    replay_as_a_campaign()

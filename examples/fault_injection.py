"""Walkthrough: the resilience subsystem (fault injection end to end).

Run with::

    PYTHONPATH=src python examples/fault_injection.py

Covers the full surface: describing a fault profile, previewing the
deterministic timeline it draws, running a fault-injected campaign,
registering a custom failure-aware scenario, and sweeping fault
intensity with availability metrics streamed to JSONL.
"""

from __future__ import annotations

import json
import tempfile

from repro.network.topology import metro_ring
from repro.orchestrator import run_scenario
from repro.resilience import FaultProfile, build_timeline
from repro.scenarios import (
    ScenarioSpec,
    SweepConfig,
    get_scenario,
    list_scenarios,
    register,
    run_sweep,
)
from repro.scenarios.workloads import uniform


def browse_fault_aware_scenarios() -> None:
    print("== failure-aware scenarios ==")
    for spec in list_scenarios(tag="resilience"):
        print(f"  {spec.name:<26s} {spec.description}")
    print()


def preview_a_timeline() -> None:
    print("== the deterministic fault timeline ==")
    instance = get_scenario("metro-mesh-flaky-links").instantiate(seed=0)
    timeline = instance.fault_timeline
    print(
        f"  {timeline.fail_count} failures over {timeline.link_candidates} "
        f"links inside {timeline.horizon_ms:.0f} ms"
    )
    for event in timeline.events[:5]:
        print(
            f"    t={event.time_ms:>9.1f} ms  {event.kind:<6} "
            f"{'-'.join(event.subject)}"
        )
    # Same (params, seed) -> the same timeline, in any process.
    again = get_scenario("metro-mesh-flaky-links").instantiate(seed=0)
    assert again.fault_timeline == timeline
    print("  re-instantiating with the same seed reproduces it exactly")
    print()


def run_a_fault_injected_campaign() -> None:
    print("== a campaign with live fail/repair ==")
    result = run_scenario("metro-mesh-flaky-links", {"n_tasks": 10}, seed=1)
    print(
        f"  completed {result.completed}/10, blocked {result.blocked}, "
        f"makespan {result.makespan_ms:.0f} ms"
    )
    for key, value in result.availability.items():
        print(f"    {key:<26s} {value:.3f}")
    print()


def register_a_custom_failure_scenario() -> None:
    print("== a custom failure-aware scenario ==")

    def tiny_ring(params):
        return metro_ring(n_sites=params["n_sites"], servers_per_site=2)

    register(
        ScenarioSpec(
            name="example-ring-outages",
            description="small ring with exponential span faults",
            topology=tiny_ring,
            workload=uniform,
            fault_profile=FaultProfile(
                link_mtbf_ms=20_000.0,
                link_mttr_ms=4_000.0,
                horizon_ms=60_000.0,
            ),
            defaults={
                "n_sites": 6,
                "n_tasks": 8,
                "n_locals": 3,
                "demand_gbps": 8.0,
                "rounds": 6,
                "mean_interarrival_ms": 400.0,
                "background_flows": 5,
                "link_mtbf_ms": 20_000.0,
                "link_mttr_ms": 4_000.0,
                "horizon_ms": 60_000.0,
            },
            serve="campaign",
            tags=("example", "resilience"),
        ),
        replace=True,  # keep the walkthrough re-runnable
    )
    result = run_scenario("example-ring-outages", seed=2)
    print(
        f"  registered and ran 'example-ring-outages': availability "
        f"{result.availability['availability']:.3f}, "
        f"{result.availability['tasks_interrupted']:.0f} interruptions"
    )
    print()


def sweep_fault_intensity_to_jsonl() -> None:
    print("== sweeping fault intensity, streaming rows to JSONL ==")
    config = SweepConfig(
        scenarios=("metro-mesh-flaky-links",),
        grid={"link_mtbf_ms": [20_000.0, 80_000.0], "n_tasks": [8]},
        seeds=(0,),
    )
    with tempfile.NamedTemporaryFile(suffix=".jsonl", mode="r") as sink:
        result = run_sweep(config, jsonl_path=sink.name)
        lines = [json.loads(line) for line in open(sink.name)]
    print(f"  {len(result.rows)} rows, {len(lines)} JSONL lines")
    for row in result.rows:
        print(
            f"    {row['scheduler']:<13s} MTBF={row['link_mtbf_ms']:>8.0f}  "
            f"availability={row['availability']:.3f}  "
            f"interrupted={row['tasks_interrupted']:.0f}"
        )


if __name__ == "__main__":
    browse_fault_aware_scenarios()
    preview_a_timeline()
    run_a_fault_injected_campaign()
    register_a_custom_failure_scenario()
    sweep_fault_intensity_to_jsonl()

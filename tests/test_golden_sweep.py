"""Golden-file regression: pinned sweep rows must never drift.

Two small sweeps — a protocol-served toy sweep and a fault-injected
campaign — have their JSONL row streams committed under
``tests/golden/``.  Any change to scheduling, routing, fault injection,
or row assembly that alters a single byte of output fails here, so performance work cannot silently change results.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python -c "
    from repro.scenarios import SweepConfig, run_sweep
    from tests.test_golden_sweep import GOLDEN_SWEEPS
    for name, config in GOLDEN_SWEEPS.items():
        run_sweep(config, jsonl_path=f'tests/golden/{name}.jsonl')"

and justify the diff in review.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.fixed import FixedScheduler
from repro.core.flexible import FlexibleScheduler
from repro.orchestrator.campaign import CampaignRunner, orchestrator_for
from repro.resilience import FaultInjector
from repro.scenarios import SweepConfig, get_scenario, run_sweep
from tests.oracle import object_oracle

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_SWEEPS = {
    "toy_triangle_protocol": SweepConfig(
        scenarios=("toy-triangle",),
        grid={"demand_gbps": [5.0, 10.0]},
        seeds=(0, 1),
    ),
    "metro_mesh_flaky_links_campaign": SweepConfig(
        scenarios=("metro-mesh-flaky-links",),
        grid={"n_tasks": [6], "n_sites": [8]},
        seeds=(0,),
    ),
    # The trace-replay acceptance pin: trace-shaped arrivals + forecast
    # SRLG cuts.  The same scenario is replayed across every backend in
    # test_trace_matrix.py.
    "trace_srlg_campaign": SweepConfig(
        scenarios=("trace-srlg-campaign",),
        grid={"trace_epochs": [8]},
        seeds=(0,),
    ),
    "interdc_deadlines_campaign": SweepConfig(
        scenarios=("interdc-deadlines",),
        grid={"n_tasks": [8]},
        seeds=(0,),
    ),
    # Long-horizon fault pins, one per fault handler: ~1,400 SRLG
    # drains and cuts over a task history of ~300 admissions, node
    # outages that take down model hosts, and partial-capacity
    # degrades that evict tasks off a span.
    "trace_srlg_campaign_long": SweepConfig(
        scenarios=("trace-srlg-campaign",),
        grid={"trace_epochs": [300], "horizon_ms": [240_000.0]},
        seeds=(0,),
    ),
    "nsfnet_node_outages_campaign": SweepConfig(
        scenarios=("nsfnet-node-outages",),
        grid={"n_tasks": [40]},
        seeds=(0,),
    ),
    "metro_degraded_spans_campaign": SweepConfig(
        scenarios=("metro-degraded-spans",),
        grid={"n_tasks": [60], "horizon_ms": [240_000.0]},
        seeds=(0,),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_rows_match_golden_file(name, tmp_path):
    golden = GOLDEN_DIR / f"{name}.jsonl"
    produced = tmp_path / f"{name}.jsonl"
    run_sweep(GOLDEN_SWEEPS[name], jsonl_path=str(produced))
    assert produced.read_bytes() == golden.read_bytes(), (
        f"sweep {name!r} no longer reproduces its golden rows; if the "
        "change is intentional, regenerate tests/golden/ (see module "
        "docstring) and explain the diff"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_golden_matches_with_cache_disabled(name, tmp_path):
    """The uncached object-kernel oracle pins the same bytes."""
    golden = GOLDEN_DIR / f"{name}.jsonl"
    produced = tmp_path / f"{name}.jsonl"
    with object_oracle():
        run_sweep(GOLDEN_SWEEPS[name], jsonl_path=str(produced))
    assert produced.read_bytes() == golden.read_bytes()


#: Long-horizon campaigns whose orchestrator event logs are pinned too:
#: the log names every affected task, in handling order, with the
#: handler's wording — finer than the aggregate sink rows.
EVENT_LOG_PINS = (
    "trace_srlg_campaign_long",
    "nsfnet_node_outages_campaign",
    "metro_degraded_spans_campaign",
)
EVENT_LOG_GOLDEN = GOLDEN_DIR / "fault_event_logs.json"


def event_log_digests(name):
    """scheduler -> {"events", "sha256"} of each campaign's event log.

    Regenerate the golden (only for an intentional change) with::

        PYTHONPATH=src python -c "
        import json
        from tests.test_golden_sweep import (
            EVENT_LOG_GOLDEN, EVENT_LOG_PINS, event_log_digests)
        EVENT_LOG_GOLDEN.write_text(json.dumps(
            {n: event_log_digests(n) for n in EVENT_LOG_PINS},
            indent=1, sort_keys=True) + '\\n')"
    """
    config = GOLDEN_SWEEPS[name]
    (scenario,) = config.scenarios
    params = {key: values[0] for key, values in config.grid.items()}
    digests = {}
    for scheduler in (FixedScheduler(), FlexibleScheduler()):
        instance = get_scenario(scenario).instantiate(
            params, seed=config.seeds[0]
        )
        orchestrator = orchestrator_for(instance, scheduler)
        CampaignRunner(
            orchestrator,
            instance.workload,
            injector=FaultInjector(instance.fault_timeline),
        ).run()
        events = orchestrator.database.events
        text = "".join(f"{time!r}\t{message}\n" for time, message in events)
        digests[scheduler.name] = {
            "events": len(events),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    return digests


@pytest.mark.parametrize("name", EVENT_LOG_PINS)
def test_fault_event_log_matches_golden(name):
    golden = json.loads(EVENT_LOG_GOLDEN.read_text())
    assert event_log_digests(name) == golden[name], (
        f"campaign {name!r} no longer reproduces its pinned event log"
    )

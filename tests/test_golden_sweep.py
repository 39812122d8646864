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

from pathlib import Path

import pytest

from repro.scenarios import SweepConfig, run_sweep
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

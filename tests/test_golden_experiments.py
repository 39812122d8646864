"""Golden-file regression: every experiment id reproduces its pinned rows.

``tests/golden/experiments/<id>.json`` holds ``to_json()`` of each
experiment in the id → runner table at its default configuration (what
``repro <id> --save`` writes), plus ``fig3-executed.json``: Fig. 3 at a
small configuration with ``measurement="executed"``.  Any change to a
harness, the serving loop, scheduling or evaluation that alters a
single byte of a figure or ablation row fails here.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src:. python -c "
    from tests.test_golden_experiments import GOLDEN_DIR, golden_runners
    for name, run in golden_runners().items():
        (GOLDEN_DIR / f'{name}.json').write_text(run().to_json())"

and justify the diff in review.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.experiments import EXPERIMENTS, Fig3Config, run_fig3
from repro.reporting import ExperimentResult

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "experiments"

#: Fig. 3 with every served round executed on the simulation engine.
FIG3_EXECUTED = Fig3Config(
    n_locals_values=(3, 9), n_tasks=8, measurement="executed"
)


def golden_runners() -> Dict[str, Callable[[], ExperimentResult]]:
    """Golden file stem -> zero-argument runner."""
    runners = dict(EXPERIMENTS)
    runners["fig3-executed"] = lambda: run_fig3(FIG3_EXECUTED)
    return runners


def test_every_golden_file_has_a_runner():
    stems = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert stems == set(golden_runners())


@pytest.mark.parametrize("name", sorted(golden_runners()))
def test_experiment_rows_match_golden_file(name):
    golden = GOLDEN_DIR / f"{name}.json"
    produced = golden_runners()[name]().to_json()
    assert produced == golden.read_text(encoding="utf-8"), (
        f"experiment {name!r} no longer reproduces its golden rows; if "
        "the change is intentional, regenerate tests/golden/experiments/ "
        "(see module docstring) and explain the diff"
    )

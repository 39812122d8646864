"""Experiment harnesses regenerating every figure in the paper + ablations.

Each harness returns an :class:`~repro.reporting.ExperimentResult` whose
rows are the exact series the paper plots; ``to_table()`` renders them
for terminal inspection and the benchmark suite asserts their shapes.
:data:`EXPERIMENTS` maps every experiment id to its zero-argument runner;
the CLI (``repro list``, ``repro <id>``), ``examples/reproduce_figures.py``
and the golden-file tests all read it.

Index:

* :func:`~repro.experiments.fig1.run_fig1` — the qualitative fixed-vs-
  flexible connectivity example of Fig. 1;
* :func:`~repro.experiments.fig3.run_fig3a` — total latency vs number of
  local models (Fig. 3a);
* :func:`~repro.experiments.fig3.run_fig3b` — consumed bandwidth vs
  number of local models (Fig. 3b);
* :mod:`~repro.experiments.ablations` — re-scheduling trade-off, client
  selection, TCP-vs-RDMA, spine-leaf fabric, auxiliary-weight sweep;
* :mod:`~repro.experiments.extensions` — stronger baselines, failures,
  compression, optical spectrum, campaigns and fault-intensity sweeps.
"""

from typing import Callable, Dict

from ..reporting import ExperimentResult
from .ablations import (
    run_auxgraph_ablation,
    run_rescheduling_ablation,
    run_selection_ablation,
    run_spineleaf_ablation,
    run_transport_ablation,
)
from .extensions import (
    run_baselines_comparison,
    run_campaign_comparison,
    run_compression_ablation,
    run_failure_recovery,
    run_model_validation,
    run_optical_spectrum,
    run_optimality_gap,
    run_resilience_sweep,
)
from .fig1 import run_fig1
from .fig3 import Fig3Config, run_fig3, run_fig3a, run_fig3b

#: Experiment id -> zero-argument runner at its default configuration.
EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "fig1": run_fig1,
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "abl-resched": run_rescheduling_ablation,
    "abl-select": run_selection_ablation,
    "abl-rdma": run_transport_ablation,
    "abl-spineleaf": run_spineleaf_ablation,
    "abl-aux": run_auxgraph_ablation,
    "abl-baselines": run_baselines_comparison,
    "abl-failures": run_failure_recovery,
    "abl-fp16": run_compression_ablation,
    "abl-optical": run_optical_spectrum,
    "abl-simcheck": run_model_validation,
    "abl-optgap": run_optimality_gap,
    "abl-campaign": run_campaign_comparison,
    "abl-resilience": run_resilience_sweep,
}

__all__ = [
    "EXPERIMENTS",
    "run_baselines_comparison",
    "run_campaign_comparison",
    "run_compression_ablation",
    "run_failure_recovery",
    "run_model_validation",
    "run_optical_spectrum",
    "run_optimality_gap",
    "ExperimentResult",
    "run_fig1",
    "Fig3Config",
    "run_fig3",
    "run_fig3a",
    "run_fig3b",
    "run_resilience_sweep",
    "run_rescheduling_ablation",
    "run_selection_ablation",
    "run_transport_ablation",
    "run_spineleaf_ablation",
    "run_auxgraph_ablation",
]

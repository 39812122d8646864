"""Figure 1: the qualitative fixed-vs-flexible connectivity example.

One task (global model G, three locals) on the toy triangle topology.
The rows expose exactly what the paper's figure shows: which links each
scheduler occupies, how much bandwidth that consumes, and where
aggregation happens.
"""

from __future__ import annotations

from ..core.evaluation import EvaluationConfig, ScheduleEvaluator
from ..core.fixed import FixedScheduler
from ..core.flexible import FlexibleScheduler
from ..network.topology import toy_triangle
from ..reporting import ExperimentResult
from ..tasks.aitask import AITask
from ..tasks.models import get_model


def run_fig1(demand_gbps: float = 10.0, model_name: str = "resnet18") -> ExperimentResult:
    """Schedule the Fig. 1 example under both schedulers and compare."""
    result = ExperimentResult(
        name="fig1",
        description="fixed vs flexible connectivity for one 3-local task",
        parameters={"demand_gbps": demand_gbps, "model": model_name},
    )
    for scheduler in (FixedScheduler(), FlexibleScheduler()):
        network = toy_triangle()
        task = AITask(
            task_id="fig1-task",
            model=get_model(model_name),
            global_node="S-G",
            local_nodes=("S-1", "S-2", "S-3"),
            demand_gbps=demand_gbps,
        )
        schedule = scheduler.schedule(task, network)
        evaluator = ScheduleEvaluator(network, EvaluationConfig())
        report = evaluator.report(schedule)
        edges = sorted(schedule.occupied_edges())
        result.add(
            scheduler=scheduler.name,
            occupied_edges=len(edges),
            edge_list=";".join(f"{a}->{b}" for a, b in edges),
            bandwidth_gbps=report.consumed_bandwidth_gbps,
            round_ms=report.round_latency.total_ms,
            aggregation_nodes=",".join(report.aggregation_nodes),
        )
    return result

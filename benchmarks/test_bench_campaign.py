"""Benchmark abl-campaign: concurrent service of the whole task mix.

Unlike the per-task fig3 protocol, all tasks run *concurrently* with
Poisson arrivals.  Asserted shape: the flexible scheduler's smaller
footprint admits (and completes) more of the offered load.  Note that the
fixed scheduler's makespan can look competitive precisely *because* it
blocks tasks — shed load is not served load — so the honest comparison
is completion count at equal offered load.

Two count floors ride on the pinned trace+SRLG campaign
(``run_scenario("trace-srlg-campaign", seed=0)``, flexible scheduler):

* ``evaluations_per_schedule`` (shape, floored ``<= 1.0``): evaluator
  ``report()`` calls per distinct schedule.  The orchestrator keeps one
  report per live schedule, so a task's training rounds reuse it;
  re-pricing every round costs one call per round.
* ``plan_builds_per_flexible_attempt`` (shape, floored ``<= 1.0``):
  upload aggregation plans built per flexible ``schedule()`` attempt.
  Only the tree reservation builds one; evaluation and round execution
  read it off the schedule.
"""

from repro.bench import bench_suite
from repro.core.evaluation import ScheduleEvaluator
from repro.core.flexible import FlexibleScheduler
from repro.experiments.extensions import run_campaign_comparison
from repro.orchestrator.campaign import run_scenario
from repro.tasks.aggregation import UploadAggregationPlan

from benchmarks.conftest import run_once


def campaign_counts() -> dict:
    """Evaluation and plan-build counts on the pinned trace campaign."""
    evaluated = []  # every schedule report() priced, kept alive
    attempts = [0]
    builds = [0]
    report = ScheduleEvaluator.report
    schedule = FlexibleScheduler.schedule
    build = UploadAggregationPlan.__dict__["build"]

    def counted_report(self, task_schedule):
        evaluated.append(task_schedule)
        return report(self, task_schedule)

    def counted_schedule(self, task, network):
        attempts[0] += 1
        return schedule(self, task, network)

    def counted_build(cls, *args, **kwargs):
        builds[0] += 1
        return build.__func__(cls, *args, **kwargs)

    ScheduleEvaluator.report = counted_report
    FlexibleScheduler.schedule = counted_schedule
    UploadAggregationPlan.build = classmethod(counted_build)
    try:
        run_scenario("trace-srlg-campaign", seed=0)
    finally:
        ScheduleEvaluator.report = report
        FlexibleScheduler.schedule = schedule
        UploadAggregationPlan.build = build
    distinct = len({id(task_schedule) for task_schedule in evaluated})
    return {
        "evaluations_per_schedule": round(len(evaluated) / distinct, 3),
        "plan_builds_per_flexible_attempt": round(builds[0] / attempts[0], 3),
    }


@bench_suite("campaign", headline="flexible_completed")
def suite(smoke: bool = False) -> dict:
    """Concurrent campaign: flexible admits and completes the whole mix."""
    result = run_campaign_comparison(n_tasks=12)
    by_scheduler = {row["scheduler"]: row for row in result.rows}
    fixed, flexible = by_scheduler["fixed-spff"], by_scheduler["flexible-mst"]

    assert flexible["completed"] >= fixed["completed"]
    assert flexible["blocked"] <= fixed["blocked"]
    assert flexible["blocked"] == 0, "flexible should admit the whole mix"
    assert flexible["completed"] == 12
    return {
        "offered": 12,
        "flexible_completed": flexible["completed"],
        "flexible_blocked": flexible["blocked"],
        "fixed_completed": fixed["completed"],
        "fixed_blocked": fixed["blocked"],
        **campaign_counts(),
    }


def test_concurrent_campaign(benchmark):
    run_once(benchmark, suite)

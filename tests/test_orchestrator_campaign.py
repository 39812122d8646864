"""Tests for the campaign runner (full lifecycles on simulated time)."""

import pytest

from repro.core.flexible import FlexibleScheduler
from repro.core.prediction import IterationPredictor
from repro.core.rescheduling import ReschedulingPolicy
from repro.errors import OrchestrationError
from repro.network.topology import metro_mesh
from repro.orchestrator.campaign import CampaignRunner
from repro.orchestrator.orchestrator import Orchestrator
from repro.sim.rng import RandomStreams
from repro.tasks.workload import WorkloadConfig, generate_workload


def build(n_tasks=4, rounds=3, interarrival=10.0, seed=3, **orch_kwargs):
    net = metro_mesh(n_sites=10, servers_per_site=2)
    orchestrator = Orchestrator(
        net, FlexibleScheduler(), container_gflops=5_000.0, **orch_kwargs
    )
    workload = generate_workload(
        net,
        WorkloadConfig(
            n_tasks=n_tasks,
            n_locals=4,
            rounds=rounds,
            demand_gbps=3.0,
            mean_interarrival_ms=interarrival,
        ),
        RandomStreams(seed),
    )
    return net, orchestrator, workload


class TestLifecycle:
    def test_all_tasks_complete(self):
        net, orchestrator, workload = build()
        result = CampaignRunner(orchestrator, workload).run()
        assert result.completed == len(workload)
        assert result.blocked == 0
        for outcome in result.outcomes.values():
            assert outcome.rounds_run == 3
            assert outcome.finished

    def test_resources_released_at_end(self):
        net, orchestrator, workload = build()
        CampaignRunner(orchestrator, workload).run()
        assert net.total_reserved_gbps() == pytest.approx(0.0)
        assert orchestrator.compute.total_containers == 0
        assert orchestrator.sdn.total_rules == 0

    def test_completion_after_admission(self):
        net, orchestrator, workload = build()
        result = CampaignRunner(orchestrator, workload).run()
        for outcome in result.outcomes.values():
            assert outcome.completed_ms > outcome.admitted_ms

    def test_makespan_is_latest_completion(self):
        net, orchestrator, workload = build()
        result = CampaignRunner(orchestrator, workload).run()
        assert result.makespan_ms == pytest.approx(
            max(o.completed_ms for o in result.outcomes.values())
        )

    def test_round_durations_positive_and_counted(self):
        net, orchestrator, workload = build(rounds=5)
        result = CampaignRunner(orchestrator, workload).run()
        assert result.mean_round_ms > 0
        for outcome in result.outcomes.values():
            assert len(outcome.round_durations_ms) == 5

    def test_until_cuts_the_campaign_short(self):
        net, orchestrator, workload = build(rounds=50)
        result = CampaignRunner(orchestrator, workload).run(until=100.0)
        assert result.completed < len(workload)


class TestPredictorIntegration:
    def test_predictor_observes_every_round(self):
        net, orchestrator, workload = build(rounds=4)
        predictor = IterationPredictor()
        CampaignRunner(orchestrator, workload, predictor=predictor).run()
        for task in workload:
            estimate = predictor.estimate(task.task_id)
            assert estimate is not None
            assert estimate.observations == 4


class TestReschedulingLoop:
    def test_requires_policy(self):
        net, orchestrator, workload = build()
        with pytest.raises(OrchestrationError):
            CampaignRunner(orchestrator, workload, reschedule_period_ms=50.0)

    def test_invalid_period_rejected(self):
        net, orchestrator, workload = build(
            rescheduling=ReschedulingPolicy()
        )
        with pytest.raises(OrchestrationError):
            CampaignRunner(orchestrator, workload, reschedule_period_ms=0.0)

    def test_periodic_pass_runs_and_campaign_completes(self):
        net, orchestrator, workload = build(
            rounds=6, rescheduling=ReschedulingPolicy(interruption_ms=1e9)
        )
        result = CampaignRunner(
            orchestrator, workload, reschedule_period_ms=30.0
        ).run()
        assert result.completed == len(workload)
        # A prohibitive interruption cost: nothing actually moved.
        assert result.total_reschedules == 0
        # But the policy was consulted (decision log entries exist).
        assert any(
            "reschedule=" in message
            for _t, message in orchestrator.database.events
        )

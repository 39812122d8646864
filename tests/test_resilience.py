"""Tests for the resilience subsystem: profiles, timelines, node faults,
injection, accounting, and the scenario/sweep/CLI integration."""

import json
import random

import pytest

from repro.cli import main
from repro.core.flexible import FlexibleScheduler
from repro.errors import ConfigurationError, SimulationError
from repro.network.topology import metro_mesh, nsfnet
from repro.orchestrator import run_scenario
from repro.orchestrator.database import TaskStatus
from repro.orchestrator.orchestrator import Orchestrator
from repro.resilience import (
    AvailabilityAccountant,
    FaultInjector,
    FaultProfile,
    build_timeline,
    link_candidates,
    node_candidates,
)
from repro.scenarios import (
    ScenarioSpec,
    SweepConfig,
    get_scenario,
    list_scenarios,
    run_sweep,
)

from tests.conftest import make_mesh_task, placed_containers


# ---------------------------------------------------------------------------
# FaultProfile
# ---------------------------------------------------------------------------

class TestFaultProfile:
    def test_needs_at_least_one_process(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultProfile()

    def test_rejects_unknown_law(self):
        with pytest.raises(ConfigurationError, match="law"):
            FaultProfile(link_mtbf_ms=100.0, law="weibull")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_mtbf_ms": -1.0},
            {"link_mtbf_ms": 10.0, "link_mttr_ms": 0.0},
            {"node_mtbf_ms": 0.0},
            {"link_mtbf_ms": 10.0, "horizon_ms": -5.0},
            {"node_mtbf_ms": 10.0, "node_kinds": ()},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultProfile(**kwargs)

    def test_resolved_overrides_enabled_fields(self):
        profile = FaultProfile(link_mtbf_ms=100.0, link_mttr_ms=10.0)
        resolved = profile.resolved({"link_mtbf_ms": 50, "n_tasks": 9})
        assert resolved.link_mtbf_ms == 50.0
        assert resolved.link_mttr_ms == 10.0

    def test_resolved_ignores_disabled_process(self):
        profile = FaultProfile(link_mtbf_ms=100.0)
        resolved = profile.resolved({"node_mtbf_ms": 50.0})
        assert resolved.node_mtbf_ms is None

    def test_resolved_rejects_non_numeric(self):
        profile = FaultProfile(link_mtbf_ms=100.0)
        with pytest.raises(ConfigurationError):
            profile.resolved({"link_mtbf_ms": "fast"})

    def test_describe_mentions_both_processes(self):
        text = FaultProfile(
            link_mtbf_ms=100.0, node_mtbf_ms=50.0
        ).describe()
        assert "links" in text and "nodes" in text


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------

class TestTimeline:
    def test_deterministic_for_same_seed(self):
        net = metro_mesh(n_sites=6, servers_per_site=1)
        profile = FaultProfile(link_mtbf_ms=500.0, link_mttr_ms=100.0, horizon_ms=5_000.0)
        a = build_timeline(profile, net, random.Random(7))
        b = build_timeline(profile, net, random.Random(7))
        assert a == b
        assert a.events  # the horizon is long enough to draw something

    def test_per_component_alternation(self):
        net = metro_mesh(n_sites=6, servers_per_site=1)
        profile = FaultProfile(link_mtbf_ms=300.0, link_mttr_ms=50.0, horizon_ms=5_000.0)
        timeline = build_timeline(profile, net, random.Random(1))
        state = {}
        for event in timeline.events:
            key = (event.component, event.subject)
            if event.kind == "fail":
                assert state.get(key, "up") == "up"
                state[key] = "down"
            else:
                assert state[key] == "down"
                state[key] = "up"

    def test_events_time_ordered_and_inside_horizon(self):
        net = metro_mesh(n_sites=6, servers_per_site=1)
        profile = FaultProfile(link_mtbf_ms=200.0, link_mttr_ms=50.0, horizon_ms=2_000.0)
        timeline = build_timeline(profile, net, random.Random(3))
        times = [event.time_ms for event in timeline.events]
        assert times == sorted(times)
        assert all(0 < t <= 2_000.0 for t in times)

    def test_deterministic_law_exact_and_staggered(self):
        net = metro_mesh(n_sites=4, servers_per_site=1)
        profile = FaultProfile(
            link_mtbf_ms=400.0, link_mttr_ms=100.0,
            law="deterministic", horizon_ms=1_500.0,
        )
        timeline = build_timeline(profile, net, random.Random(0))
        per_component = {}
        for event in timeline.events:
            per_component.setdefault(event.subject, []).append(event)
        first_fails = set()
        for events in per_component.values():
            # Exact MTTR between fail and repair, exact MTBF between
            # repair and the next fail — no randomness under this law.
            for fail, repair in zip(events[0::2], events[1::2]):
                assert repair.time_ms - fail.time_ms == pytest.approx(100.0)
            for repair, fail in zip(events[1::2], events[2::2]):
                assert fail.time_ms - repair.time_ms == pytest.approx(400.0)
            first = events[0]
            assert first.kind == "fail"
            assert 0.0 < first.time_ms <= 400.0
            first_fails.add(first.time_ms)
        # Components are phase-staggered: maintenance rolls across the
        # fabric rather than downing every span at one instant.
        assert len(first_fails) == len(per_component)

    def test_link_candidates_exclude_server_attachments(self):
        net = metro_mesh(n_sites=4, servers_per_site=2)
        for u, v in link_candidates(net):
            assert not u.startswith("SRV") and not v.startswith("SRV")

    def test_node_candidates_filter_by_kind(self):
        net = nsfnet(servers_per_site=1)
        servers = node_candidates(net, ("server",))
        assert servers and all(name.startswith("SRV") for name in servers)
        assert node_candidates(net, ("roadm",)) == []

    def test_node_only_profile_draws_no_link_events(self):
        net = nsfnet(servers_per_site=1)
        profile = FaultProfile(node_mtbf_ms=300.0, horizon_ms=3_000.0, node_kinds=("server",))
        timeline = build_timeline(profile, net, random.Random(5))
        assert timeline.link_candidates == 0
        assert all(event.component == "node" for event in timeline.events)


# ---------------------------------------------------------------------------
# Node-level failure state
# ---------------------------------------------------------------------------

class TestNodeFailureState:
    def test_fail_node_downs_incident_links(self, square_net):
        square_net.fail_node("A")
        assert square_net.node("A").failed
        assert square_net.link("A", "B").failed
        assert square_net.link("A", "C").failed
        assert not square_net.link("B", "C").failed
        assert [node.name for node in square_net.nodes() if node.failed] == ["A"]

    def test_restore_node_reopens_links(self, square_net):
        square_net.fail_node("A")
        square_net.restore_node("A")
        assert not square_net.node("A").failed
        assert square_net.failed_links() == []

    def test_fail_and_restore_are_idempotent(self, square_net):
        square_net.fail_node("A")
        square_net.fail_node("A")  # no double-counting
        square_net.restore_node("A")
        assert square_net.failed_links() == []
        square_net.restore_node("A")  # no underflow
        assert not square_net.node("A").failed

    def test_link_between_two_down_nodes_needs_both_repairs(self, square_net):
        square_net.fail_node("A")
        square_net.fail_node("B")
        square_net.restore_node("A")
        assert square_net.link("A", "B").failed  # B is still down
        square_net.restore_node("B")
        assert not square_net.link("A", "B").failed

    def test_span_failure_survives_node_repair(self, square_net):
        square_net.fail_link("A", "B")
        square_net.fail_node("A")
        square_net.restore_node("A")
        assert square_net.link("A", "B").failed  # span fault persists
        square_net.restore_link("A", "B")
        assert not square_net.link("A", "B").failed


# ---------------------------------------------------------------------------
# Orchestrated node recovery
# ---------------------------------------------------------------------------

class TestOrchestratedNodeRecovery:
    @pytest.fixture
    def loaded(self):
        net = metro_mesh(n_sites=10, servers_per_site=2)
        orchestrator = Orchestrator(
            net, FlexibleScheduler(), container_gflops=5_000.0
        )
        tasks = [make_mesh_task(net, 5, task_id=f"n-{i}") for i in range(4)]
        for task in tasks:
            assert orchestrator.admit(task).status is TaskStatus.RUNNING
        return net, orchestrator, tasks

    def test_hosted_tasks_blocked_and_torn_down(self, loaded):
        net, orchestrator, tasks = loaded
        victim = tasks[0].global_node
        outcomes = orchestrator.handle_node_failure(victim)
        hosted = [
            t.task_id
            for t in tasks
            if victim == t.global_node or victim in t.local_nodes
        ]
        assert hosted
        for task_id in hosted:
            assert outcomes[task_id] is False
            record = orchestrator.database.record(task_id)
            assert record.status is TaskStatus.BLOCKED
            assert record.schedule is None

    def test_no_capacity_leak_after_node_failure(self, loaded):
        net, orchestrator, tasks = loaded
        orchestrator.handle_node_failure(tasks[0].global_node)
        running = orchestrator.database.running()
        running_bandwidth = sum(
            record.schedule.consumed_bandwidth_gbps
            for record in running
            if record.schedule is not None
        )
        assert net.total_reserved_gbps() == pytest.approx(running_bandwidth)
        # BLOCKED is terminal: only still-running tasks may hold compute.
        expected_containers = sum(
            1 + len(record.task.local_nodes) for record in running
        )
        assert placed_containers(orchestrator.compute) == expected_containers

    def test_routed_through_tasks_rerouted_around_router(self, loaded):
        net, orchestrator, tasks = loaded
        outcomes = orchestrator.handle_node_failure("RT-0")
        for task_id, repaired in outcomes.items():
            record = orchestrator.database.record(task_id)
            if repaired:
                assert record.status is TaskStatus.RUNNING
                for edge in record.schedule.occupied_edges():
                    assert "RT-0" not in edge
            else:
                assert record.status is TaskStatus.BLOCKED

    def test_restore_logged_and_links_back(self, loaded):
        net, orchestrator, _tasks = loaded
        orchestrator.handle_node_failure("RT-0")
        orchestrator.handle_node_restore("RT-0")
        assert not net.node("RT-0").failed
        assert any(
            "node RT-0 restored" in msg
            for _t, msg in orchestrator.database.events
        )


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

class TestAccountant:
    def test_downtime_and_mttr(self):
        acc = AvailabilityAccountant(link_population=2, node_population=0, horizon_ms=100.0)
        acc.on_fail("link", ("a", "b"), 10.0)
        acc.on_repair("link", ("a", "b"), 30.0)
        acc.finalize(100.0)
        metrics = acc.metrics()
        assert metrics["link_downtime_ms"] == pytest.approx(20.0)
        assert metrics["mean_time_to_recover_ms"] == pytest.approx(20.0)
        assert metrics["availability"] == pytest.approx(1.0 - 20.0 / 200.0)

    def test_still_down_component_charged_to_end(self):
        acc = AvailabilityAccountant(link_population=1, node_population=0, horizon_ms=100.0)
        acc.on_fail("link", ("a", "b"), 60.0)
        acc.finalize(100.0)
        assert acc.metrics()["link_downtime_ms"] == pytest.approx(40.0)

    def test_window_clamped_to_run_end_when_cut_short(self):
        # A run cut at t=50 was only *observed* to 50: the component is
        # charged to the cut, and availability uses the observed window.
        acc = AvailabilityAccountant(link_population=1, node_population=0, horizon_ms=100.0)
        acc.on_fail("link", ("a", "b"), 40.0)
        acc.finalize(50.0)
        metrics = acc.metrics()
        assert metrics["link_downtime_ms"] == pytest.approx(10.0)
        assert metrics["availability"] == pytest.approx(1.0 - 10.0 / 50.0)

    def test_window_clamped_to_horizon_when_run_overshoots(self):
        # No faults are drawn past the horizon, so a long campaign must
        # not dilute downtime with guaranteed-up tail time.
        acc = AvailabilityAccountant(link_population=1, node_population=0, horizon_ms=100.0)
        acc.on_fail("link", ("a", "b"), 20.0)
        acc.on_repair("link", ("a", "b"), 40.0)
        acc.finalize(1_000.0)
        assert acc.metrics()["availability"] == pytest.approx(1.0 - 20.0 / 100.0)

    def test_reset_starts_a_fresh_epoch(self):
        acc = AvailabilityAccountant(link_population=1, node_population=0, horizon_ms=100.0)
        acc.on_fail("link", ("a", "b"), 10.0)
        acc.on_task_outcomes({"t": False})
        acc.finalize(100.0)
        acc.reset()
        acc.finalize(100.0)
        metrics = acc.metrics()
        assert metrics["link_downtime_ms"] == 0.0
        assert metrics["tasks_interrupted"] == 0.0

    def test_double_fail_rejected(self):
        acc = AvailabilityAccountant(1, 0, 100.0)
        acc.on_fail("link", ("a", "b"), 1.0)
        with pytest.raises(SimulationError):
            acc.on_fail("link", ("a", "b"), 2.0)

    def test_repair_while_up_rejected(self):
        acc = AvailabilityAccountant(1, 0, 100.0)
        with pytest.raises(SimulationError):
            acc.on_repair("link", ("a", "b"), 2.0)

    def test_task_outcomes_split(self):
        acc = AvailabilityAccountant(1, 1, 100.0)
        acc.on_task_outcomes({"t1": True, "t2": False, "t3": True})
        metrics = acc.metrics()
        assert metrics["tasks_interrupted"] == 3.0
        assert metrics["fault_reschedules"] == 2.0
        assert metrics["fault_blocks"] == 1.0

    def test_repeatedly_hit_task_counted_once(self):
        # Reschedules count events; interrupted tasks are distinct.
        acc = AvailabilityAccountant(1, 1, 100.0)
        acc.on_task_outcomes({"t1": True})
        acc.on_task_outcomes({"t1": True, "t2": True})
        metrics = acc.metrics()
        assert metrics["tasks_interrupted"] == 2.0
        assert metrics["fault_reschedules"] == 3.0


# ---------------------------------------------------------------------------
# Scenario / campaign / sweep integration
# ---------------------------------------------------------------------------

class TestScenarioIntegration:
    def test_fault_profile_requires_campaign_serving(self):
        spec = get_scenario("metro-mesh-uniform")
        import dataclasses

        with pytest.raises(ConfigurationError, match="campaign"):
            dataclasses.replace(
                spec, fault_profile=FaultProfile(link_mtbf_ms=100.0)
            )

    def test_builtin_catalogue_has_three_fault_scenarios(self):
        fault_aware = [
            spec.name
            for spec in list_scenarios()
            if spec.fault_profile is not None
        ]
        assert len(fault_aware) >= 3

    def test_instance_carries_timeline_and_metadata(self):
        instance = get_scenario("metro-mesh-flaky-links").instantiate(seed=0)
        assert instance.fault_timeline is not None
        assert instance.fault_timeline.events
        assert instance.metadata["fault_events_drawn"] == (
            instance.fault_timeline.fail_count
        )

    def test_grid_param_reshapes_timeline(self):
        spec = get_scenario("metro-mesh-flaky-links")
        calm = spec.instantiate({"link_mtbf_ms": 500_000.0}, seed=0)
        churny = spec.instantiate({"link_mtbf_ms": 5_000.0}, seed=0)
        assert churny.fault_timeline.fail_count > calm.fault_timeline.fail_count

    def test_run_scenario_reports_availability(self):
        result = run_scenario("metro-mesh-flaky-links", {"n_tasks": 6}, seed=0)
        assert result.availability is not None
        assert result.availability["fault_events"] > 0
        assert 0.0 < result.availability["availability"] < 1.0

    def test_plain_scenario_has_no_availability(self):
        result = run_scenario("toy-triangle", seed=0)
        assert result.availability is None

    def test_injector_reuse_starts_fresh_epoch(self):
        # Re-attaching the same injector (e.g. replaying one timeline
        # against several runs) must reset the books, not accumulate
        # downtime across epochs.
        from repro.orchestrator.campaign import CampaignRunner, orchestrator_for

        spec = get_scenario("metro-mesh-flaky-links")

        def play(injector):
            instance = spec.instantiate({"n_tasks": 4}, seed=0)
            return CampaignRunner(
                orchestrator_for(instance, FlexibleScheduler()),
                instance.workload,
                injector=injector,
            ).run()

        instance = spec.instantiate({"n_tasks": 4}, seed=0)
        injector = FaultInjector(instance.fault_timeline)
        first = play(injector)
        second = play(injector)
        assert first.availability == second.availability
        assert first.availability["fault_events"] > 0


FAULT_SWEEP = SweepConfig(
    scenarios=("metro-mesh-flaky-links",),
    grid={"n_tasks": [6]},
    seeds=(0,),
)


class TestFaultSweeps:
    def test_rows_carry_availability_metrics(self):
        result = run_sweep(FAULT_SWEEP)
        for row in result.rows:
            assert row["fault_events"] > 0
            assert 0.0 < row["availability"] < 1.0
            assert row["link_downtime_ms"] > 0

    def test_same_seed_rows_byte_identical(self):
        first = run_sweep(FAULT_SWEEP)
        second = run_sweep(FAULT_SWEEP)
        assert first.to_json() == second.to_json()

    def test_parallel_matches_serial(self):
        serial = run_sweep(FAULT_SWEEP, workers=1)
        parallel = run_sweep(FAULT_SWEEP, workers=2)
        assert serial.to_json() == parallel.to_json()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestFaultsCli:
    def test_faults_describes_profile_and_timeline(self, capsys):
        assert main(["scenarios", "faults", "metro-mesh-flaky-links"]) == 0
        out = capsys.readouterr().out
        assert "MTBF" in out
        assert "fail" in out

    def test_faults_respects_overrides(self, capsys):
        assert (
            main(
                [
                    "scenarios",
                    "faults",
                    "metro-mesh-flaky-links",
                    "--set",
                    "link_mtbf_ms=1000",
                    "--events",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MTBF=1000 ms" in out

    def test_faults_rejects_profile_free_scenario(self, capsys):
        assert main(["scenarios", "faults", "toy-triangle"]) == 2
        err = capsys.readouterr().err
        assert "no fault profile" in err
        assert "metro-mesh-flaky-links" in err

    def test_faults_rejects_unknown_scenario(self, capsys):
        assert main(["scenarios", "faults", "nope"]) == 2

    def test_faults_rejects_bad_override(self, capsys):
        assert (
            main(["scenarios", "faults", "metro-mesh-flaky-links", "--set", "oops"])
            == 2
        )

    def test_list_shows_resilience_tag(self, capsys):
        assert main(["scenarios", "list", "--tag", "resilience"]) == 0
        out = capsys.readouterr().out
        assert "metro-mesh-flaky-links" in out
        assert "nsfnet-node-outages" in out
        assert "metro-roadm-maintenance" in out


# ---------------------------------------------------------------------------
# JSONL sink (satellite)
# ---------------------------------------------------------------------------

class TestJsonlSink:
    def test_rows_streamed_in_run_order(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        result = run_sweep(FAULT_SWEEP, jsonl_path=str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [
            json.loads(json.dumps(row, sort_keys=True, default=str))
            for row in result.rows
        ]

    def test_cached_runs_also_streamed(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_sweep(FAULT_SWEEP, cache_dir=cache)
        path = tmp_path / "cached.jsonl"
        result = run_sweep(FAULT_SWEEP, cache_dir=cache, jsonl_path=str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(result.rows)

    def test_rerun_does_not_duplicate_rows(self, tmp_path):
        # Cached resumes re-emit finished runs, so the sink truncates at
        # open: a rerun must leave one complete row set, not two.
        path = tmp_path / "rows.jsonl"
        cache = str(tmp_path / "cache")
        run_sweep(FAULT_SWEEP, cache_dir=cache, jsonl_path=str(path))
        first = path.read_text()
        run_sweep(FAULT_SWEEP, cache_dir=cache, jsonl_path=str(path))
        assert path.read_text() == first

    def test_cli_jsonl_flag(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        assert (
            main(
                [
                    "scenarios",
                    "sweep",
                    "toy-triangle",
                    "--set",
                    "demand_gbps=10",
                    "--jsonl",
                    str(path),
                ]
            )
            == 0
        )
        assert len(path.read_text().splitlines()) == 2


# ---------------------------------------------------------------------------
# Static failure-model metadata (satellite)
# ---------------------------------------------------------------------------

class TestStaticFailureCap:
    def test_capped_request_warns_and_records_metadata(self):
        from repro.scenarios.failures import LinkFailureModel
        from repro.scenarios.workloads import uniform
        from repro.network.topology import metro_ring

        def tiny(params):
            return metro_ring(n_sites=3, servers_per_site=2)

        spec = ScenarioSpec(
            name="cap-test",
            description="requests more failures than links exist",
            topology=tiny,
            workload=uniform,
            failures=LinkFailureModel(n_failures=99),
            defaults={
                "n_tasks": 1,
                "n_locals": 2,
                "demand_gbps": 1.0,
                "background_flows": 0,
            },
        )
        with pytest.warns(RuntimeWarning, match="only .* inter-switch links"):
            instance = spec.instantiate(seed=0)
        assert instance.metadata["failures_requested"] == 99
        assert instance.metadata["failures_applied"] == len(instance.failed_links)
        assert instance.metadata["failures_applied"] < 99

    def test_uncapped_request_does_not_warn(self):
        import warnings as warnings_module

        spec = get_scenario("metro-mesh-failures")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            instance = spec.instantiate(seed=0)
        assert instance.metadata["failures_applied"] == 2


# ---------------------------------------------------------------------------
# Campaign-mode resilience sweeps on the distributed backend (PR 3)
# ---------------------------------------------------------------------------

class TestDistributedResilienceSweep:
    def test_campaign_socket_sweep_into_sqlite(self, tmp_path):
        """The acceptance path end to end: a fault-injected campaign
        sweep on the work-stealing socket backend, streaming availability
        and makespan rows into the queryable SQLite sink."""
        from repro.scenarios import SocketQueueBackend, SqliteSink, read_aggregates

        db = str(tmp_path / "resilience.db")
        result = run_sweep(
            FAULT_SWEEP,
            backend=SocketQueueBackend(local_workers=2, timeout=120.0),
            sink=SqliteSink(db),
        )
        assert result.rows
        for row in result.rows:
            assert row["makespan_ms"] > 0
            assert 0.0 < row["availability"] < 1.0
        # Byte-identical to the serial engine, faults included.
        assert result.to_json() == run_sweep(FAULT_SWEEP).to_json()
        # Availability and makespan are queryable aggregates in the sink.
        aggregates = read_aggregates(db)
        metrics = {metric for (_, _, metric) in aggregates}
        assert {"availability", "makespan_ms", "link_downtime_ms"} <= metrics
        for (_, _, metric), (n, mean) in aggregates.items():
            if metric == "availability":
                assert 0.0 < mean < 1.0

    def test_fault_params_sweep_on_socket_backend(self, tmp_path):
        """Fault intensity stays a sweepable knob on the socket backend."""
        config = SweepConfig(
            scenarios=("metro-mesh-flaky-links",),
            grid={"n_tasks": [4], "link_mtbf_ms": [8_000.0, 80_000.0]},
            seeds=(0,),
        )
        distributed = run_sweep(config, backend="socket", workers=2)
        serial = run_sweep(config)
        assert distributed.to_json() == serial.to_json()
        flaky = [r for r in distributed.rows if r["link_mtbf_ms"] == 8_000.0]
        calm = [r for r in distributed.rows if r["link_mtbf_ms"] == 80_000.0]
        assert min(r["availability"] for r in flaky) <= min(
            r["availability"] for r in calm
        )

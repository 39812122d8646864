"""Correlated failures (SRLG / degradation / forecasts) and the
resilience-edge regression pins of PR 9.

Three bugfixes are pinned here with the exact probes that failed before
the fix:

* ``FaultProfile`` accepted ``None``/NaN repair times and ``_draw``
  divided by a zero mean — all three now raise ``ConfigurationError``;
* ``AvailabilityAccountant.metrics()`` ignored still-open faults before
  ``finalize()``, over-reporting availability mid-run;
* the ``bursty`` workload divided by a zero ``mean_burst_gap_ms`` /
  ``intra_burst_ms`` mid-sweep.
"""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.network.topology import metro_mesh
from repro.network.topology.isp import rocketfuel_isp
from repro.orchestrator import run_scenario
from repro.orchestrator.orchestrator import Orchestrator
from repro.resilience import (
    FAIL,
    FORECAST,
    REPAIR,
    AvailabilityAccountant,
    FaultInjector,
    FaultProfile,
    build_timeline,
    cluster_nodes,
    derive_srlgs,
)
from repro.resilience.processes import _draw
from repro.scenarios import workloads
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def ebone():
    return rocketfuel_isp("as1755-ebone")


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------

class TestProfileValidationRegressions:
    def test_none_repair_time_rejected_not_typeerror(self):
        # Pre-fix: raw TypeError out of the float comparison.
        with pytest.raises(ConfigurationError, match="link_mttr_ms"):
            FaultProfile(link_mtbf_ms=5.0, link_mttr_ms=None)

    def test_nan_mean_rejected(self):
        # Pre-fix: constructed silently, then poisoned every draw.
        with pytest.raises(ConfigurationError, match="finite"):
            FaultProfile(link_mtbf_ms=float("nan"))

    def test_draw_rejects_zero_mean(self):
        # Pre-fix: ZeroDivisionError from expovariate(1/0).
        with pytest.raises(ConfigurationError, match="> 0 ms"):
            _draw("exponential", random.Random(0), 0.0)

    def test_draw_rejects_boolean_mean(self):
        with pytest.raises(ConfigurationError, match="mean"):
            _draw("exponential", random.Random(0), True)


class TestAccountantOpenFaultRegression:
    def test_metrics_before_finalize_charges_open_faults(self):
        # Pre-fix: the open fault was invisible until finalize(), so a
        # mid-run probe reported availability 1.0.
        acc = AvailabilityAccountant(
            link_population=1, node_population=0, horizon_ms=100.0
        )
        acc.on_fail("link", ("a", "b"), 10.0)
        metrics = acc.metrics()
        assert metrics["link_downtime_ms"] == pytest.approx(90.0)
        assert metrics["availability"] == pytest.approx(0.1)

    def test_mid_run_probe_does_not_mutate_the_books(self):
        acc = AvailabilityAccountant(
            link_population=1, node_population=0, horizon_ms=100.0
        )
        acc.on_fail("link", ("a", "b"), 10.0)
        acc.metrics()
        acc.on_repair("link", ("a", "b"), 30.0)
        acc.finalize(100.0)
        assert acc.metrics()["link_downtime_ms"] == pytest.approx(20.0)


class TestBurstyZeroMeanRegression:
    @pytest.mark.parametrize(
        "overrides",
        [{"mean_burst_gap_ms": 0.0}, {"intra_burst_ms": 0.0}],
        ids=["gap", "intra"],
    )
    def test_zero_means_rejected_not_zerodivision(self, overrides):
        params = {
            "n_tasks": 4,
            "n_locals": 2,
            "demand_gbps": 5.0,
            **overrides,
        }
        with pytest.raises(ConfigurationError, match="must be > 0"):
            workloads.bursty(
                metro_mesh(), params, RandomStreams(0).fork("scenario:x")
            )


# ---------------------------------------------------------------------------
# SRLG derivation
# ---------------------------------------------------------------------------

class TestSrlgDerivation:
    def test_groups_partition_all_interswitch_links(self):
        net = ebone()
        groups = derive_srlgs(net, radius_km=150.0)
        spans = [
            tuple(sorted(span))
            for group in groups
            for span in group.members
        ]
        assert len(spans) == len(set(spans))
        switch_links = [
            tuple(sorted((l.u, l.v)))
            for l in net.links()
            if not l.u.startswith("SRV") and not l.v.startswith("SRV")
        ]
        assert sorted(spans) == sorted(switch_links)

    def test_zero_radius_gives_singleton_anchors(self):
        net = ebone()
        assignment = cluster_nodes(net, radius_km=0.0)
        for name, anchor in assignment.items():
            assert name == anchor

    def test_wider_radius_merges_groups(self):
        net = ebone()
        tight = derive_srlgs(net, radius_km=10.0)
        wide = derive_srlgs(net, radius_km=2_000.0)
        assert len(wide) <= len(tight)

    def test_deterministic(self):
        assert derive_srlgs(ebone(), radius_km=150.0) == derive_srlgs(
            ebone(), radius_km=150.0
        )

    def test_profile_rejects_link_and_srlg_together(self):
        with pytest.raises(ConfigurationError, match="same link population"):
            FaultProfile(link_mtbf_ms=100.0, srlg_mtbf_ms=100.0)


# ---------------------------------------------------------------------------
# Timeline shapes
# ---------------------------------------------------------------------------

class TestCorrelatedTimelines:
    def test_srlg_profile_draws_group_events(self):
        profile = FaultProfile(
            srlg_mtbf_ms=5_000.0, srlg_mttr_ms=1_000.0, horizon_ms=30_000.0
        )
        timeline = build_timeline(profile, ebone(), random.Random(0))
        assert timeline.srlg_groups
        assert any(e.component == "srlg" for e in timeline.events)
        # SRLG-only profiles still cover the link population, or the
        # availability denominator would be zero.
        assert timeline.link_candidates > 0

    def test_degrade_profile_draws_degrade_events(self):
        profile = FaultProfile(
            degrade_mtbf_ms=5_000.0,
            degrade_mttr_ms=1_000.0,
            horizon_ms=30_000.0,
        )
        timeline = build_timeline(profile, metro_mesh(), random.Random(0))
        assert timeline.degrade_candidates > 0
        assert any(e.component == "degrade" for e in timeline.events)

    def test_forecast_precedes_every_forecasted_fail(self):
        profile = FaultProfile(
            srlg_mtbf_ms=5_000.0,
            srlg_mttr_ms=1_000.0,
            forecast_lead_ms=400.0,
            horizon_ms=30_000.0,
        )
        timeline = build_timeline(profile, ebone(), random.Random(0))
        forecast_times: dict = {}
        fail_times: dict = {}
        for event in timeline.events:
            key = (event.component, event.subject)
            if event.kind == FORECAST:
                forecast_times.setdefault(key, []).append(event.time_ms)
            elif event.kind == FAIL:
                fail_times.setdefault(key, []).append(event.time_ms)
        assert forecast_times
        # Every FAIL of a forecastable component gets exactly one
        # forecast, lead_ms earlier (clamped at t=0).
        for key, fails in fail_times.items():
            expected = sorted(max(0.0, t - 400.0) for t in fails)
            assert sorted(forecast_times[key]) == expected

    def test_forecast_needs_a_link_or_srlg_process(self):
        with pytest.raises(ConfigurationError, match="forecast"):
            FaultProfile(
                node_mtbf_ms=5_000.0,
                forecast_lead_ms=400.0,
            )

    def test_new_processes_do_not_shift_legacy_draws(self):
        # Correlated draws come strictly after the link/node draws, so a
        # legacy profile's timeline is byte-stable under the new code.
        legacy = FaultProfile(link_mtbf_ms=5_000.0, horizon_ms=30_000.0)
        one = build_timeline(legacy, metro_mesh(), random.Random(7))
        two = build_timeline(legacy, metro_mesh(), random.Random(7))
        assert one.events == two.events
        assert all(
            e.component in ("link", "node") and e.kind in (FAIL, REPAIR)
            for e in one.events
        )


# ---------------------------------------------------------------------------
# Injection semantics (driven through real campaigns)
# ---------------------------------------------------------------------------

class TestCorrelatedInjection:
    def test_srlg_cut_metrics_on_campaign(self):
        result = run_scenario("isp-srlg-cuts", {"n_tasks": 6}, seed=0)
        assert result.availability is not None
        assert result.availability["srlg_cuts"] > 0
        assert 0.0 < result.availability["availability"] <= 1.0

    def test_degrade_metrics_on_campaign(self):
        result = run_scenario("metro-degraded-spans", {"n_tasks": 6}, seed=0)
        metrics = result.availability
        assert metrics["degrade_events"] > 0
        assert metrics["degraded_ms"] > 0
        # Degradation is not an outage: the spans stayed up.
        assert metrics["availability"] == pytest.approx(1.0)

    def test_forecast_metrics_on_campaign(self):
        result = run_scenario("trace-srlg-campaign", seed=0)
        metrics = result.availability
        assert metrics["forecast_drains"] + metrics["forecast_blocks"] > 0
        assert metrics["srlg_cuts"] > 0

    def test_legacy_campaign_rows_have_no_new_keys(self):
        result = run_scenario("metro-mesh-flaky-links", {"n_tasks": 6}, seed=0)
        for key in ("srlg_cuts", "degrade_events", "forecast_drains"):
            assert key not in result.availability

    def test_degrade_restores_nominal_capacity(self):
        net = metro_mesh()
        profile = FaultProfile(
            degrade_mtbf_ms=2_000.0,
            degrade_mttr_ms=500.0,
            degraded_fraction=0.5,
            horizon_ms=10_000.0,
        )
        timeline = build_timeline(profile, net, random.Random(3))
        assert any(e.component == "degrade" for e in timeline.events)
        nominal = {
            (l.u, l.v): l.capacity_gbps for l in net.links()
        }
        # Repairs past the horizon are dropped by design, so a span's
        # expected end state follows its *last* timeline transition.
        last_kind: dict = {}
        for event in timeline.events:
            if event.component == "degrade":
                last_kind[tuple(event.subject)] = event.kind
        injector = FaultInjector(timeline)
        sim = Simulator()
        injector.attach(sim, Orchestrator(net, scheduler=None))
        sim.run()
        assert any(kind == REPAIR for kind in last_kind.values())
        for link in net.links():
            expected = nominal[(link.u, link.v)]
            if last_kind.get((link.u, link.v)) == FAIL:
                expected *= 0.5
            assert link.capacity_gbps == pytest.approx(expected)

    def test_double_degrade_of_same_span_rejected(self):
        acc = AvailabilityAccountant(
            link_population=1,
            node_population=0,
            horizon_ms=100.0,
            track_degrade=True,
        )
        acc.on_degrade(("a", "b"), 10.0)
        with pytest.raises(SimulationError, match="degraded twice"):
            acc.on_degrade(("a", "b"), 20.0)

"""Tests for the extension experiments (baselines, failures, fp16)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.extensions import (
    run_baselines_comparison,
    run_compression_ablation,
    run_failure_recovery,
    run_optimality_gap,
)


class TestBaselinesComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_baselines_comparison(
            n_locals_values=(3, 12), n_tasks=6, seed=23
        )

    def _value(self, result, scheduler, n_locals, key):
        for row in result.rows:
            if row["scheduler"] == scheduler and row["n_locals"] == n_locals:
                return row[key]
        raise AssertionError("row missing")

    def test_all_four_schedulers_present(self, result):
        names = {row["scheduler"] for row in result.rows}
        assert names == {"fixed-spff", "ksp-lb", "chain", "flexible-mst"}

    def test_flexible_bandwidth_dominates(self, result):
        for n_locals in (3, 12):
            flexible = self._value(result, "flexible-mst", n_locals, "bandwidth_gbps")
            for other in ("fixed-spff", "ksp-lb", "chain"):
                assert flexible <= self._value(result, other, n_locals, "bandwidth_gbps") + 1e-6

    def test_aggregating_schedulers_beat_path_schedulers_at_scale(self, result):
        fixed = self._value(result, "fixed-spff", 12, "round_ms")
        for aggregating in ("chain", "flexible-mst"):
            assert self._value(result, aggregating, 12, "round_ms") < fixed

    def test_everyone_serves_everything(self, result):
        assert all(row["blocked"] == 0 for row in result.rows)


class TestFailureRecovery:
    @pytest.fixture(scope="class")
    def result(self):
        return run_failure_recovery(n_tasks=8, n_failures=3, seed=29)

    def test_rows_per_scheduler(self, result):
        assert {row["scheduler"] for row in result.rows} == {
            "fixed-spff",
            "flexible-mst",
        }

    def test_most_tasks_survive_on_a_mesh(self, result):
        for row in result.rows:
            assert row["running_after"] >= row["running_before"] // 2

    def test_repairs_bounded_by_affected(self, result):
        for row in result.rows:
            assert 0 <= row["repaired"] <= row["affected"]

    def test_flexible_post_failure_bandwidth_lower(self, result):
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        assert (
            by_scheduler["flexible-mst"]["bandwidth_after_gbps"]
            < by_scheduler["fixed-spff"]["bandwidth_after_gbps"]
        )


class TestCampaignComparison:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.extensions import run_campaign_comparison

        return run_campaign_comparison(n_tasks=8, rounds=4, seed=47)

    def test_flexible_admits_more(self, result):
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        assert (
            by_scheduler["flexible-mst"]["completed"]
            >= by_scheduler["fixed-spff"]["completed"]
        )

    def test_counts_conserve(self, result):
        for row in result.rows:
            assert row["completed"] + row["blocked"] <= 8
            assert row["makespan_ms"] > 0


class TestCompressionAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_compression_ablation(n_tasks=6, n_locals=6, seed=31)

    def _row(self, result, precision, scheduler):
        for row in result.rows:
            if row["precision"] == precision and row["scheduler"] == scheduler:
                return row
        raise AssertionError("row missing")

    def test_fp16_roughly_halves_comm_time(self, result):
        for scheduler in ("fixed-spff", "flexible-mst"):
            full = self._row(result, "fp32", scheduler)["comm_ms"]
            half = self._row(result, "fp16", scheduler)["comm_ms"]
            assert 0.35 < half / full < 0.65

    def test_winner_unchanged_by_compression(self, result):
        for precision in ("fp32", "fp16"):
            fixed = self._row(result, precision, "fixed-spff")["round_ms"]
            flexible = self._row(result, precision, "flexible-mst")["round_ms"]
            # Near-parity or flexible-wins at 6 locals: never >5% worse.
            assert flexible < fixed * 1.05


class TestOptimalityGapValidation:
    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError, match="n_samples"):
            run_optimality_gap(n_samples=0)

    def test_more_locals_than_servers_rejected(self):
        with pytest.raises(ConfigurationError, match="24-server"):
            run_optimality_gap(n_locals_values=(30,))

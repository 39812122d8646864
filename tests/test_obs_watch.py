"""Tests for the SLO/regression watchdogs (``repro.obs.watch``) and
their CLI surfaces (``repro obs analyze/watch``, ``repro bench verify
--watch``)."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.watch import (
    DEFAULT_REGRESSION_RULES,
    RegressionRule,
    SloRule,
    evaluate_regressions,
    evaluate_slo,
    parse_slo_rule,
    render_watch,
    watch,
)
from repro.scenarios import SweepConfig, run_sweep

TOY = SweepConfig(
    scenarios=("toy-triangle",), grid={"demand_gbps": [5.0]}, seeds=(0, 1)
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _history_record(speedup, *, smoke=False):
    return {
        "schema": 1,
        "timestamp": "2026-08-07T00:00:00Z",
        "machine_class": "reference",
        "smoke": smoke,
        "suites": {"csr": {"scale_free_200": {"speedup": speedup}}},
    }


def _write_history(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


RULE = RegressionRule(
    "csr-speedup", "csr.scale_free_200.speedup",
    higher_is_better=True, tolerance_pct=40.0,
)


# ---------------------------------------------------------------------------
# Rule parsing and evaluation
# ---------------------------------------------------------------------------

class TestSloRules:
    def test_parse_round_trip(self):
        rule = parse_slo_rule("phase.schedule.p99_ms<=250")
        assert rule.metric == "phase.schedule.p99_ms"
        assert rule.op == "<=" and rule.limit == 250.0
        rule = parse_slo_rule("coverage>=0.9")
        assert rule.op == ">=" and rule.limit == 0.9

    @pytest.mark.parametrize("text", ["nonsense", "<=3", "m<=abc"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigurationError):
            parse_slo_rule(text)

    def test_evaluate_flags_violations_and_missing_metrics(self):
        rules = [
            SloRule("cov", "coverage", 1.0, op=">="),
            SloRule("lat", "phase.schedule.p99_ms", 10.0, op="<="),
            SloRule("gone", "no.such.metric", 1.0),
        ]
        breaches, checked = evaluate_slo(
            {"coverage": 0.5, "phase.schedule.p99_ms": 5.0}, rules
        )
        assert len(checked) == 3
        assert {b.rule for b in breaches} == {"cov", "gone"}
        missing = next(b for b in breaches if b.rule == "gone")
        assert "missing" in missing.reason


class TestRegressionRules:
    def test_step_drop_past_tolerance_trips(self):
        records = [_history_record(v) for v in (6.0, 6.2, 6.1, 3.0)]
        breaches, checked, skipped = evaluate_regressions(records, [RULE])
        assert len(breaches) == 1
        assert "stepped from median" in breaches[0].reason
        assert not skipped

    def test_jitter_within_tolerance_passes(self):
        records = [_history_record(v) for v in (6.0, 6.2, 6.1, 5.0)]
        breaches, checked, skipped = evaluate_regressions(records, [RULE])
        assert not breaches and len(checked) == 1

    def test_too_few_points_skips_not_passes(self):
        records = [_history_record(6.0), _history_record(3.0)]
        breaches, checked, skipped = evaluate_regressions(records, [RULE])
        assert not breaches and not checked
        assert len(skipped) == 1 and "point(s)" in skipped[0]

    def test_smoke_records_excluded_from_series(self):
        records = [_history_record(v) for v in (6.0, 6.2, 6.1)]
        records.append(_history_record(0.1, smoke=True))
        breaches, _, _ = evaluate_regressions(records, [RULE])
        assert not breaches

    def test_lower_is_better_direction(self):
        rule = RegressionRule(
            "overhead", "csr.scale_free_200.speedup",
            higher_is_better=False, tolerance_pct=100.0,
        )
        records = [_history_record(v) for v in (1.0, 1.1, 0.9, 2.5)]
        breaches, _, _ = evaluate_regressions(records, [rule])
        assert len(breaches) == 1

    def test_default_rules_cover_tracked_headline_metrics(self):
        metrics = {rule.metric for rule in DEFAULT_REGRESSION_RULES}
        assert "csr.scale_free_200.speedup" in metrics
        assert "scheduler.scale_free_200.cached_s" in metrics
        assert "obs.collect_overhead_pct" in metrics


# ---------------------------------------------------------------------------
# The watch() facade and its rendering
# ---------------------------------------------------------------------------

class TestWatch:
    def test_requires_an_input(self):
        with pytest.raises(ConfigurationError):
            watch()

    def test_green_run_over_collected_trace(self, tmp_path):
        trace = str(tmp_path / "campaign.jsonl")
        run_sweep(TOY, workers=1, collect=trace)
        result = watch(trace=trace)
        assert result.ok
        rendered = render_watch(result)
        assert "watchdogs green" in rendered
        assert "trace-coverage" in rendered

    def test_trace_slo_breach_reported(self, tmp_path):
        trace = str(tmp_path / "campaign.jsonl")
        run_sweep(TOY, workers=1, collect=trace)
        result = watch(
            trace=trace,
            slo_rules=[SloRule("impossible", "runs", 99.0, op=">=")],
        )
        assert not result.ok
        assert "WATCHDOG BREACHES" in render_watch(result)

    def test_history_regression_breach(self, tmp_path):
        history = str(tmp_path / "hist.jsonl")
        _write_history(
            history, [_history_record(v) for v in (6.0, 6.2, 6.1, 3.0)]
        )
        result = watch(history=history, regression_rules=[RULE])
        assert not result.ok


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestCli:
    def test_obs_analyze_renders_tables(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        run_sweep(TOY, workers=1, collect=trace)
        assert main(["obs", "analyze", trace]) == 0
        out = capsys.readouterr().out
        assert "critical path by phase" in out
        assert "p95_ms" in out
        assert "slowest runs" in out

    def test_obs_analyze_json(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        run_sweep(TOY, workers=1, collect=trace)
        assert main(["obs", "analyze", trace, "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["runs"] == 2

    def test_obs_analyze_uncollected_trace_errors(self, tmp_path):
        trace = str(tmp_path / "plain.jsonl")
        with obs.session(trace=trace):
            run_sweep(TOY, workers=1)
        assert main(["obs", "analyze", trace]) == 2

    def test_obs_watch_green_exits_zero(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        run_sweep(TOY, workers=1, collect=trace)
        assert main(["obs", "watch", "--trace", trace]) == 0
        assert "watchdogs green" in capsys.readouterr().out

    def test_obs_watch_seeded_regression_exits_nonzero(
        self, tmp_path, capsys
    ):
        history = str(tmp_path / "hist.jsonl")
        _write_history(
            history, [_history_record(v) for v in (6.0, 6.2, 6.1, 3.0)]
        )
        assert main(["obs", "watch", "--history", history]) == 1
        out = capsys.readouterr().out
        assert "WATCHDOG BREACHES" in out
        assert "csr-speedup" in out

    def test_obs_watch_cli_slo_rule(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        run_sweep(TOY, workers=1, collect=trace)
        assert (
            main(["obs", "watch", "--trace", trace, "--slo", "runs>=99"])
            == 1
        )
        assert "cli:runs" in capsys.readouterr().out

    def test_obs_watch_no_input_errors(self):
        assert main(["obs", "watch"]) == 2

    def test_sweep_collect_flag_writes_merged_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        code = main(
            [
                "scenarios",
                "sweep",
                "toy-triangle",
                "--set",
                "demand_gbps=5.0",
                "--seeds",
                "0,1",
                "--collect",
                trace,
            ]
        )
        assert code == 0
        records = list(obs.iter_trace(trace))
        assert any(
            r.get("collect") for r in records if r.get("type") == "meta"
        )

    def test_bench_verify_watch_flags_history_regression(
        self, tmp_path, capsys
    ):
        # Every record satisfies the obs floors (shape metrics present,
        # overheads under their limits) but the newest off-overhead
        # stepped +140% past the trailing median — only the regression
        # watchdog can catch that, so --watch must flip the exit code.
        def record(off_pct):
            return {
                "schema": 1,
                "timestamp": "2026-08-07T00:00:00Z",
                "machine_class": "reference",
                "smoke": False,
                "suites": {
                    "obs": {
                        "identical": 1,
                        "collect_identical": 1,
                        "off_overhead_pct": off_pct,
                        "collect_overhead_pct": 1.0,
                    }
                },
            }

        history = str(tmp_path / "hist.jsonl")
        _write_history(
            history, [record(v) for v in (0.5, 0.5, 0.5, 1.2)]
        )
        assert (
            main(["bench", "verify", "--history", history]) == 0
        ), "floors alone must pass on this history"
        capsys.readouterr()
        code = main(["bench", "verify", "--history", history, "--watch"])
        out = capsys.readouterr().out
        assert "bench verify passed" in out
        assert "obs-off-overhead" in out
        assert code == 1

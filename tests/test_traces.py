"""Trace series, the trace/interdc workload families, modulators, the
deadline-miss campaign metrics, and the ``repro traces`` CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, TaskError
from repro.network.topology import metro_mesh
from repro.orchestrator import run_scenario
from repro.scenarios import workloads
from repro.scenarios.traces import (
    SynthConfig,
    TraceSeries,
    diurnal_arrivals,
    epoch_arrival_times,
    epoch_demands,
    flash_crowd,
    load_trace,
    save_trace,
    synthesize_mawi,
)
from repro.sim.rng import RandomStreams
from repro.tasks.aitask import AITask
from repro.tasks.models import get_model

PARAMS = {"n_tasks": 6, "n_locals": 3, "demand_gbps": 10.0}


def streams(seed=0):
    return RandomStreams(seed).fork("scenario:test")


def build(builder, params, seed=0):
    return builder(metro_mesh(), dict(params), streams(seed))


def write_json_trace(path, arrivals, demand=5.0, epoch_ms=100.0):
    """A one-epoch JSON trace holding its arguments verbatim."""
    payload = {
        "epoch_ms": epoch_ms,
        "epochs": [{"arrivals": arrivals, "demand_gbps": demand}],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# TraceSeries + file formats
# ---------------------------------------------------------------------------

class TestTraceSeries:
    def test_validates_shape(self):
        with pytest.raises(ConfigurationError, match="epochs vs"):
            TraceSeries("t", 100.0, (1, 2), (5.0,))

    def test_rejects_empty_series(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            TraceSeries("t", 100.0, (), ())

    def test_rejects_all_zero_arrivals(self):
        with pytest.raises(ConfigurationError, match="at least one arrival"):
            TraceSeries("t", 100.0, (0, 0), (5.0, 5.0))

    def test_rejects_negative_demand(self):
        with pytest.raises(ConfigurationError, match="demand"):
            TraceSeries("t", 100.0, (1,), (-5.0,))

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_round_trip(self, tmp_path, ext):
        series = synthesize_mawi(
            SynthConfig(epochs=6), streams().stream("workload/trace-synth")
        )
        path = tmp_path / f"trace.{ext}"
        save_trace(series, str(path))
        back = load_trace(str(path))
        assert back.epoch_ms == series.epoch_ms
        assert back.arrivals == series.arrivals
        assert back.demand_gbps == series.demand_gbps

    def test_load_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="trace"):
            load_trace(str(tmp_path / "nope.json"))

    def test_load_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_trace(str(path))

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="extension"):
            load_trace(str(tmp_path / "trace.yaml"))

    @pytest.mark.parametrize(
        "csv_count, json_count",
        [("3", 3), ("1.7", 1.7), ("true", True), ("2.0", 2.0), ("-1", -1)],
    )
    def test_csv_and_json_loaders_agree(self, tmp_path, csv_count, json_count):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(
            f"epoch_ms,arrivals,demand_gbps\n100.0,{csv_count},5.0\n",
            encoding="utf-8",
        )
        json_path = tmp_path / "t.json"
        write_json_trace(json_path, json_count)
        outcomes = []
        for path in (csv_path, json_path):
            try:
                outcomes.append(load_trace(str(path)).arrivals)
            except ConfigurationError:
                outcomes.append("rejected")
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == ((3,) if json_count == 3 else "rejected")


    @pytest.mark.parametrize("demand", [True, "2", "5.0", None, [5.0]])
    def test_json_demand_must_be_a_number(self, tmp_path, demand):
        path = tmp_path / "t.json"
        write_json_trace(path, 1, demand)
        with pytest.raises(ConfigurationError, match="demands must be"):
            load_trace(str(path))

    @pytest.mark.parametrize("epoch_ms", [100, 100.0, 2.5])
    def test_json_numeric_epoch_loads_as_float(self, tmp_path, epoch_ms):
        path = tmp_path / "t.json"
        write_json_trace(path, 1, epoch_ms=epoch_ms)
        loaded = load_trace(str(path)).epoch_ms
        assert type(loaded) is float and loaded == float(epoch_ms)

    @pytest.mark.parametrize(
        "csv_demand, json_demand, expected",
        [("2", 2, (2.0,)), ("2.5", 2.5, (2.5,)), ("true", True, "rejected")],
    )
    def test_csv_and_json_demands_agree(
        self, tmp_path, csv_demand, json_demand, expected
    ):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(
            f"epoch_ms,arrivals,demand_gbps\n100.0,1,{csv_demand}\n",
            encoding="utf-8",
        )
        json_path = tmp_path / "t.json"
        write_json_trace(json_path, 1, json_demand)
        for path in (csv_path, json_path):
            try:
                demands = load_trace(str(path)).demand_gbps
            except ConfigurationError:
                demands = "rejected"
            assert demands == expected
            if demands != "rejected":
                assert all(type(d) is float for d in demands)


class TestSynthesis:
    def test_deterministic_per_seed(self):
        one = synthesize_mawi(
            SynthConfig(), streams(3).stream("workload/trace-synth")
        )
        two = synthesize_mawi(
            SynthConfig(), streams(3).stream("workload/trace-synth")
        )
        assert one == two
        other = synthesize_mawi(
            SynthConfig(), streams(4).stream("workload/trace-synth")
        )
        assert one != other

    def test_respects_arrival_cap(self):
        series = synthesize_mawi(
            SynthConfig(
                epochs=40, mean_arrivals=30.0, max_arrivals_per_epoch=8
            ),
            streams().stream("workload/trace-synth"),
        )
        assert max(series.arrivals) <= 8

    def test_epoch_arrivals_stay_inside_their_epoch(self):
        series = synthesize_mawi(
            SynthConfig(epochs=10),
            streams().stream("workload/trace-synth"),
        )
        times = epoch_arrival_times(
            series, streams().stream("workload/trace-arrivals")
        )
        assert len(times) == series.total_tasks
        cursor = 0
        for epoch, count in enumerate(series.arrivals):
            for t in times[cursor : cursor + count]:
                assert epoch * series.epoch_ms <= t <= (epoch + 1) * series.epoch_ms
            cursor += count
        demands = epoch_demands(series)
        assert len(demands) == series.total_tasks


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

class TestTraceWorkload:
    def test_task_count_follows_series_not_n_tasks(self):
        workload = build(workloads.trace, PARAMS)
        assert len(workload.tasks) != 0
        # n_tasks says 6; the series decides the real count.
        series = synthesize_mawi(
            SynthConfig(mean_demand_gbps=10.0),
            streams().stream("workload/trace-synth"),
        )
        assert len(workload.tasks) == series.total_tasks

    def test_deterministic(self):
        one = build(workloads.trace, PARAMS, seed=5)
        two = build(workloads.trace, PARAMS, seed=5)
        assert [(t.arrival_ms, t.demand_gbps) for t in one.tasks] == [
            (t.arrival_ms, t.demand_gbps) for t in two.tasks
        ]

    def test_replays_a_saved_file(self, tmp_path):
        series = TraceSeries("pin", 500.0, (2, 0, 3), (4.0, 1.0, 8.0))
        path = tmp_path / "pin.json"
        save_trace(series, str(path))
        workload = build(
            workloads.trace, {**PARAMS, "trace_path": str(path)}
        )
        assert len(workload.tasks) == 5
        assert {t.demand_gbps for t in workload.tasks} == {4.0, 8.0}

    def test_demand_cap_applies(self, tmp_path):
        series = TraceSeries("big", 500.0, (1,), (500.0,))
        path = tmp_path / "big.json"
        save_trace(series, str(path))
        workload = build(
            workloads.trace,
            {**PARAMS, "trace_path": str(path), "demand_cap_gbps": 40.0},
        )
        assert workload.tasks[0].demand_gbps == 40.0


class TestInterdcWorkload:
    def test_two_classes_with_deadlines(self):
        workload = build(
            workloads.interdc, {**PARAMS, "n_tasks": 40, "bulk_fraction": 0.5}
        )
        deadlines = {t.deadline_ms for t in workload.tasks}
        assert deadlines == {30_000.0, 6_000.0}
        demands = {t.demand_gbps for t in workload.tasks}
        assert demands == {25.0, 5.0}

    def test_bulk_fraction_extremes(self):
        all_bulk = build(
            workloads.interdc, {**PARAMS, "bulk_fraction": 1.0}
        )
        assert {t.deadline_ms for t in all_bulk.tasks} == {30_000.0}
        none_bulk = build(
            workloads.interdc, {**PARAMS, "bulk_fraction": 0.0}
        )
        assert {t.deadline_ms for t in none_bulk.tasks} == {6_000.0}

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError, match="bulk_fraction"):
            build(workloads.interdc, {**PARAMS, "bulk_fraction": 1.5})

    def test_aitask_rejects_non_positive_deadline(self):
        with pytest.raises(TaskError, match="deadline"):
            AITask(
                task_id="t",
                model=get_model("resnet18"),
                global_node="a",
                local_nodes=("b",),
                deadline_ms=0.0,
            )


class TestModulation:
    def test_diurnal_preserves_count_and_order(self):
        base = build(
            workloads.uniform, {**PARAMS, "mean_interarrival_ms": 300.0}
        )
        warped = diurnal_arrivals(
            base.tasks, period_ms=5_000.0, amplitude=0.5
        )
        assert len(warped) == len(base.tasks)
        assert [t.task_id for t in warped] == [t.task_id for t in base.tasks]
        arrivals = [t.arrival_ms for t in warped]
        assert arrivals == sorted(arrivals)
        assert all(t.arrival_ms >= 0 for t in warped)

    def test_diurnal_zero_amplitude_is_identity(self):
        base = build(
            workloads.uniform, {**PARAMS, "mean_interarrival_ms": 300.0}
        )
        warped = diurnal_arrivals(base.tasks, period_ms=5_000.0, amplitude=0.0)
        for before, after in zip(base.tasks, warped):
            assert after.arrival_ms == pytest.approx(
                before.arrival_ms, abs=1e-6
            )

    def test_flash_crowd_pulls_members_into_window(self):
        base = build(
            workloads.uniform, {**PARAMS, "n_tasks": 30, "mean_interarrival_ms": 500.0}
        )
        flashed = flash_crowd(
            base.tasks,
            streams().stream("workload/flash-crowd"),
            time_ms=4_000.0,
            width_ms=400.0,
            fraction=1.0,
        )
        assert all(
            4_000.0 <= t.arrival_ms <= 4_400.0 for t in flashed
        )

    def test_unknown_modulation_rejected(self):
        with pytest.raises(ConfigurationError, match="modulation"):
            build(workloads.trace, {**PARAMS, "modulation": "lunar"})

    def test_modulated_wrapper_composes_over_uniform(self):
        wrapped = workloads.Modulated(workloads.uniform)
        plain = build(wrapped, {**PARAMS, "mean_interarrival_ms": 300.0})
        flashed = build(
            wrapped,
            {
                **PARAMS,
                "mean_interarrival_ms": 300.0,
                "modulation": "flash-crowd",
                "flash_fraction": 1.0,
            },
        )
        # Same placements/demands, different arrivals.
        assert [t.local_nodes for t in plain.tasks] == [
            t.local_nodes for t in flashed.tasks
        ]
        assert [t.arrival_ms for t in plain.tasks] != [
            t.arrival_ms for t in flashed.tasks
        ]


# ---------------------------------------------------------------------------
# Deadline metrics on campaigns
# ---------------------------------------------------------------------------

class TestDeadlineMetrics:
    def test_interdc_campaign_reports_misses(self):
        result = run_scenario("interdc-deadlines", {"n_tasks": 8}, seed=0)
        assert result.deadline_tasks == 8
        assert 0 <= result.deadline_misses <= result.deadline_tasks
        # Blocked deadline tasks count as misses.
        assert result.deadline_misses >= min(result.blocked, 8)

    def test_deadline_free_campaign_reports_zero(self):
        result = run_scenario("mawi-trace-replay", seed=0)
        assert result.deadline_tasks == 0
        assert result.deadline_misses == 0

    def test_generous_deadline_not_missed(self):
        result = run_scenario(
            "interdc-deadlines",
            {
                "n_tasks": 2,
                "background_flows": 0,
                "bulk_fraction": 1.0,
                "bulk_deadline_ms": 10_000_000.0,
            },
            seed=0,
        )
        finished = result.completed
        assert result.deadline_misses == result.deadline_tasks - finished


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestTracesCli:
    def test_synth_then_show(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        assert main(["traces", "synth", path, "--seed", "3", "--epochs", "6"]) == 0
        assert main(["traces", "show", path]) == 0
        out = capsys.readouterr().out
        assert "6 epochs" in out
        assert "demand_gbps" in out

    def test_synth_rejects_bad_alpha(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert (
            main(["traces", "synth", path, "--pareto-alpha", "0.5"]) == 2
        )

    def test_show_missing_file_errors(self, tmp_path):
        assert main(["traces", "show", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("count", [1.7, True])
    def test_show_non_integer_arrivals_errors(self, tmp_path, capsys, count):
        path = tmp_path / "frac.json"
        write_json_trace(path, count)
        assert main(["traces", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line.strip()]
        assert len(lines) == 1 and "ERROR" in lines[0], captured.err
        assert "arrivals must be ints" in lines[0]

    # 10**400 is a JSON integer beyond the float range.
    @pytest.mark.parametrize("demand", [True, "2", 10**400])
    def test_show_non_number_demand_errors(self, tmp_path, capsys, demand):
        path = tmp_path / "demand.json"
        write_json_trace(path, 1, demand)
        assert main(["traces", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line.strip()]
        assert len(lines) == 1 and "ERROR" in lines[0], captured.err
        assert "demands must be finite numbers" in lines[0]

    @pytest.mark.parametrize("epoch_ms", [True, "5", 10**400])
    def test_show_non_number_epoch_errors(self, tmp_path, capsys, epoch_ms):
        path = tmp_path / "epoch.json"
        write_json_trace(path, 1, epoch_ms=epoch_ms)
        assert main(["traces", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line.strip()]
        assert len(lines) == 1 and "ERROR" in lines[0], captured.err
        assert "epoch_ms must be a finite number" in lines[0]

    def test_synth_is_seed_stable(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["traces", "synth", str(a), "--seed", "9"])
        main(["traces", "synth", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text(encoding="utf-8"))
        assert payload["epochs"]

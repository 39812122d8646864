"""The ``repro bench`` harness: registry, history, floors, report, runner, CLI.

These tests drive the harness against *synthetic* suites in temporary
benchmark directories, so they stay fast and independent of the real
``benchmarks/`` workloads (which have their own pytest coverage and are
exercised end-to-end by ``repro bench run --smoke`` in CI).
"""

import json
import subprocess
import textwrap

import pytest

from repro.bench import (
    FLOORS,
    Floor,
    append_record,
    bench_suite,
    discover_suites,
    machine_class_factor,
    read_history,
    render_report,
    run_suites,
    verify_record,
)
from repro.bench.history import git_sha
from repro.bench.registry import (
    _SUITES,
    clear_registry,
    get_suite,
    metric_at,
    suites_matching,
)
from repro.bench.report import record_label
from repro.cli import main
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def isolated_registry():
    """Snapshot and restore the global suite registry around every test."""
    saved = dict(_SUITES)
    clear_registry()
    yield
    clear_registry()
    _SUITES.update(saved)


def _write_bench_module(directory, filename, body):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(textwrap.dedent(body))


def _fake_record(suites, *, smoke=False, **overrides):
    record = {
        "schema": 1,
        "timestamp": "2026-08-07T00:00:00+00:00",
        "host": "testhost",
        "platform": "linux",
        "python": "3.11.7",
        "cpu_count": 1,
        "git_sha": "abc1234",
        "machine_class": "reference",
        "smoke": smoke,
        "suites": suites,
    }
    record.update(overrides)
    return record


PASSING_SUITES = {
    "scheduler": {
        "scale_free_200": {"identical": True, "cached_s": 0.45, "speedup": 1.3},
        "scale_free_50": {"identical": True, "cached_s": 0.1, "speedup": 1.2},
    },
    "topologies": {
        "families": 11,
        "deterministic": True,
        "clos": {"builds_per_s": 786.0},
        "nsfnet": {"builds_per_s": 8516.0},
        "scale-free": {"builds_per_s": 348.0},
        "waxman": {"builds_per_s": 221.0},
    },
}


class TestRegistry:
    def test_decorator_registers_and_returns_fn(self):
        @bench_suite("alpha", headline="value")
        def suite(smoke=False):
            """First line wins.

            Second line must not leak into the description.
            """
            return {"value": 1.0}

        registered = get_suite("alpha")
        assert registered.fn is suite
        assert registered.headline == "value"
        assert registered.description == "First line wins."
        assert registered.run(smoke=True) == {"value": 1.0}

    def test_unknown_suite_lists_known_names(self):
        bench_suite("alpha")(lambda smoke=False: {})
        with pytest.raises(ConfigurationError, match="unknown bench suite"):
            get_suite("missing")

    def test_suites_matching_empty_means_all(self):
        bench_suite("a")(lambda smoke=False: {})
        bench_suite("b")(lambda smoke=False: {})
        assert [s.name for s in suites_matching(())] == ["a", "b"]
        assert [s.name for s in suites_matching(("b",))] == ["b"]

    def test_metric_at_dotted_paths(self):
        metrics = {"scale_free_200": {"speedup": 6.38}, "flat": 2}
        assert metric_at(metrics, "scale_free_200.speedup") == 6.38
        assert metric_at(metrics, "flat") == 2
        assert metric_at(metrics, "scale_free_200.missing") is None
        assert metric_at(metrics, "flat.deeper") is None


class TestDiscovery:
    def test_discovers_registered_modules(self, tmp_path):
        _write_bench_module(
            tmp_path / "bdir_ok",
            "test_bench_alpha.py",
            """
            from repro.bench import bench_suite

            @bench_suite("disc-alpha", headline="value")
            def suite(smoke=False):
                \"\"\"A synthetic suite.\"\"\"
                return {"value": 1.0}
            """,
        )
        suites = discover_suites(str(tmp_path / "bdir_ok"))
        assert [s.name for s in suites] == ["disc-alpha"]

    def test_unregistered_module_is_loud(self, tmp_path):
        _write_bench_module(
            tmp_path / "bdir_bad",
            "test_bench_forgot.py",
            """
            def suite(smoke=False):
                return {}
            """,
        )
        with pytest.raises(
            ConfigurationError, match="test_bench_forgot.py"
        ):
            discover_suites(str(tmp_path / "bdir_bad"))

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="benchmarks/"):
            discover_suites(str(tmp_path / "nowhere"))


class TestHistory:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        first = _fake_record({"s": {"m": 1}})
        second = _fake_record({"s": {"m": 2}}, smoke=True)
        append_record(path, first)
        append_record(path, second)
        records = read_history(path)
        assert [r["suites"]["s"]["m"] for r in records] == [1, 2]
        assert records[1]["smoke"] is True

    def test_blank_lines_tolerated_malformed_lines_fatal(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"suites": {}}\n\n{oops\n')
        with pytest.raises(ConfigurationError, match=r":3:"):
            read_history(str(path))
        path.write_text('{"suites": {}}\n\n')
        assert len(read_history(str(path))) == 1

    def test_record_without_suites_is_fatal(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"schema": 1}\n')
        with pytest.raises(ConfigurationError, match="no 'suites' field"):
            read_history(str(path))

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_history(str(tmp_path / "absent.jsonl")) == []

    def test_git_sha_marks_uncommitted_measured_trees(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=str(tmp_path),
                check=True,
                capture_output=True,
            )

        (tmp_path / "src").mkdir()
        module = tmp_path / "src" / "m.py"
        module.write_text("x = 1\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "one file")
        clean = git_sha(tmp_path)
        assert clean and not clean.endswith("-dirty")
        (tmp_path / "notes.txt").write_text("outside the measured trees\n")
        assert git_sha(tmp_path) == clean
        module.write_text("x = 2\n")
        assert git_sha(tmp_path) == f"{clean}-dirty"
        git("commit", "-q", "-am", "edit")
        assert not git_sha(tmp_path).endswith("-dirty")


class TestVerify:
    def test_passing_record_has_no_violations(self):
        assert verify_record(_fake_record(PASSING_SUITES)) == []

    def test_timing_floor_violation_on_full_record(self):
        suites = json.loads(json.dumps(PASSING_SUITES))
        suites["scheduler"]["scale_free_200"]["cached_s"] = 5.0
        violations = verify_record(_fake_record(suites))
        assert len(violations) == 1
        assert "scale_free_200.cached_s" in violations[0].reason

    def test_smoke_record_skips_timing_but_not_shape_floors(self):
        suites = json.loads(json.dumps(PASSING_SUITES))
        suites["scheduler"]["scale_free_200"]["cached_s"] = 5.0  # timing
        suites["topologies"]["families"] = 3  # shape
        violations = verify_record(_fake_record(suites, smoke=True))
        assert [v.floor.metric for v in violations] == ["families"]

    def test_missing_metric_inside_present_suite_is_violation(self):
        suites = json.loads(json.dumps(PASSING_SUITES))
        del suites["topologies"]["families"]
        violations = verify_record(_fake_record(suites))
        assert any("missing" in v.reason for v in violations)

    def test_absent_suites_are_skipped(self):
        only = {"scheduler": PASSING_SUITES["scheduler"]}
        assert verify_record(_fake_record(only)) == []

    def test_machine_class_relaxes_timing_floors_only(self):
        suites = json.loads(json.dumps(PASSING_SUITES))
        # An upper-bound timing floor relaxes upward: 1.5 s / 0.2 = 7.5 s
        # on 'ci', so 7.0 s passes there and 8.0 s fails.
        suites["scheduler"]["scale_free_200"]["cached_s"] = 7.0
        assert verify_record(_fake_record(suites), machine_class="ci") == []
        suites["scheduler"]["scale_free_200"]["cached_s"] = 8.0
        assert len(verify_record(_fake_record(suites), machine_class="ci")) == 1
        suites["scheduler"]["scale_free_200"]["cached_s"] = 0.45
        # A lower-bound timing floor relaxes downward: 100 builds/s * 0.2
        # = 20 builds/s on 'ci', so 25 passes there (but not on "reference")
        # and 15 fails.
        suites["topologies"]["clos"]["builds_per_s"] = 25.0
        assert verify_record(_fake_record(suites), machine_class="ci") == []
        assert len(verify_record(_fake_record(suites), machine_class="reference")) == 1
        suites["topologies"]["clos"]["builds_per_s"] = 15.0
        assert len(verify_record(_fake_record(suites), machine_class="ci")) == 1
        suites["topologies"]["clos"]["builds_per_s"] = 786.0
        # Shape floors never relax.
        suites["topologies"]["families"] = 10
        assert len(verify_record(_fake_record(suites), machine_class="ci")) == 1

    def test_upper_bound_floor_relaxes_upward(self):
        floor = Floor("x", "m", 10.0, op="<=", timing=True)
        assert floor.effective_limit(0.2) == pytest.approx(50.0)
        assert floor.effective_limit(1.0) == 10.0

    def test_unknown_machine_class_raises(self):
        with pytest.raises(ConfigurationError, match="unknown machine class"):
            machine_class_factor("mainframe")

    def test_floor_table_covers_recorded_baselines(self):
        described = {(floor.suite, floor.metric) for floor in FLOORS}
        assert ("scheduler", "scale_free_200.cached_s") in described
        assert ("topologies", "clos.builds_per_s") in described
        assert ("failures", "fault_history_ratio") in described

    def test_vector_sssp_floors(self):
        floors = {(f.suite, f.metric): f for f in FLOORS}
        identical = floors[("csr", "scale_free_1k.vector_identical")]
        assert not identical.timing and identical.limit == 1
        ranked = floors[("csr", "scale_free_1k.vector_ranked")]
        assert not ranked.timing and ranked.op == "<=" and ranked.limit == 0
        for metric, limit in (
            ("scale_free_1k.vector_speedup", 2.0),
            ("ring_1k.vector_speedup", 0.5),
        ):
            floor = floors[("csr", metric)]
            assert floor.timing and floor.op == ">=" and floor.limit == limit
        suites = {
            "csr": {
                "scale_free_200": {"identical": True},
                "scale_free_1k": {
                    "hub_utilisation": 0.5,
                    "vector_identical": False,
                    "vector_ranked": 1,
                    "vector_speedup": 3.0,
                },
                "scale_free_5k": {"scheduled": 3},
                "ring_1k": {"vector_speedup": 0.4},
            }
        }
        violated = {
            v.floor.metric for v in verify_record(_fake_record(suites))
        }
        assert "scale_free_1k.vector_identical" in violated
        assert "scale_free_1k.vector_ranked" in violated
        assert "ring_1k.vector_speedup" in violated
        assert "scale_free_1k.vector_speedup" not in violated

    def test_background_injection_floors(self):
        floors = {(f.suite, f.metric): f for f in FLOORS}
        identical = floors[("csr", "scale_free_1k.inject_identical")]
        assert not identical.timing and identical.limit == 1
        speedup = floors[("csr", "scale_free_1k.inject_speedup")]
        assert speedup.timing and speedup.op == ">=" and speedup.limit == 2.0
        suites = {
            "csr": {
                "scale_free_200": {"identical": True},
                "scale_free_1k": {
                    "hub_utilisation": 0.5,
                    "vector_identical": True,
                    "inject_identical": False,
                    "inject_speedup": 1.5,
                },
                "scale_free_5k": {"scheduled": 3},
            }
        }
        violated = {
            v.floor.metric for v in verify_record(_fake_record(suites))
        }
        assert "scale_free_1k.inject_identical" in violated
        assert "scale_free_1k.inject_speedup" in violated
        suites["csr"]["scale_free_1k"].update(
            inject_identical=True, inject_speedup=3.5
        )
        violated = {
            v.floor.metric for v in verify_record(_fake_record(suites))
        }
        assert not violated & {
            "scale_free_1k.inject_identical",
            "scale_free_1k.inject_speedup",
        }

    def test_core_sweep_floor(self):
        floors = {(f.suite, f.metric): f for f in FLOORS}
        swept = floors[("csr", "scale_free_1k.swept_edge_fraction")]
        assert not swept.timing and swept.op == "<=" and swept.limit == 0.7
        suites = {
            "csr": {
                "scale_free_200": {"identical": True},
                # Every pass sweeping the whole graph, as before the
                # core solve; the core alone sweeps 3,994 of 5,994.
                "scale_free_1k": {"swept_edge_fraction": 1.0},
                "scale_free_5k": {"scheduled": 3},
            }
        }
        violated = {
            v.floor.metric for v in verify_record(_fake_record(suites))
        }
        assert "scale_free_1k.swept_edge_fraction" in violated
        suites["csr"]["scale_free_1k"]["swept_edge_fraction"] = 0.6663
        violated = {
            v.floor.metric for v in verify_record(_fake_record(suites))
        }
        assert "scale_free_1k.swept_edge_fraction" not in violated

    def test_compression_band_floors(self):
        bands = {}
        for floor in FLOORS:
            if floor.suite == "compression":
                assert not floor.timing
                bands.setdefault(floor.metric, {})[floor.op] = floor.limit
        assert bands == {
            "fp16_comm_ratio": {">=": 0.35, "<=": 0.65},
            "fp16_comm_ratio_fixed": {">=": 0.35, "<=": 0.65},
        }
        for ratio, expected in ((0.5, set()), (0.3, {">="}), (0.7, {"<="})):
            suites = {
                "compression": {
                    "fp16_comm_ratio": ratio, "fp16_comm_ratio_fixed": 0.5
                }
            }
            ops = {
                v.floor.op for v in verify_record(_fake_record(suites))
            }
            assert ops == expected

    def test_fault_history_ratio_floor_is_an_upper_bound(self):
        suites = {
            "failures": {
                "fault_history_ratio": 3.6, "fault_cache_revalidations": 0
            }
        }
        (violation,) = verify_record(_fake_record(suites))
        assert violation.floor.metric == "fault_history_ratio"
        suites["failures"]["fault_history_ratio"] = 1.0
        assert verify_record(_fake_record(suites)) == []


    def test_sub_change_count_floors(self):
        floors = {(f.suite, f.metric): f for f in FLOORS}
        for key, limit in (
            (("failures", "fault_cache_revalidations"), 0),
            (("fig3a", "transfer_calls_per_path"), 1.5),
            (("campaign", "evaluations_per_schedule"), 1.0),
            (("campaign", "plan_builds_per_flexible_attempt"), 1.0),
            (("control_plane", "fixed.reserves_per_edge"), 1.0),
            (("control_plane", "sdn.flow_rules_built_per_install"), 0),
            (("control_plane", "ledger.sums_per_reserve"), 1.0),
            (("control_plane", "csr.idle_refresh_regathers"), 0),
            (("control_plane", "csr.refresh_link_reads"), 0),
            (("control_plane", "closure.path_results_per_tree"), 0),
        ):
            floor = floors[key]
            assert not floor.timing and floor.op == "<=" and floor.limit == limit
        suites = {
            "failures": {"fault_cache_revalidations": 600},
            "fig3a": {
                "latency_saving_pct": 20.0, "transfer_calls_per_path": 3.8
            },
            # The per-round re-pricing of a campaign: 22 report() calls
            # for 12 schedules on the pinned trace campaign.
            "campaign": {
                "flexible_blocked": 0,
                "evaluations_per_schedule": 1.833,
                "plan_builds_per_flexible_attempt": 2.0,
            },
            # Per-hop reserves and eagerly built flow rules as measured
            # on the pinned fixture before one reserve per edge; a
            # double re-sum per reserve; a refresh that ignores the
            # epoch and reads every link.
            "control_plane": {
                "fixed": {"reserves_per_edge": 1.507},
                "sdn": {"flow_rules_built_per_install": 27.4},
                "ledger": {"sums_per_reserve": 2.0},
                "csr": {"idle_refresh_regathers": 144, "refresh_link_reads": 432},
                # A closure dict of pair paths, as on the pinned
                # instance's flexible leg before the trees were read.
                "closure": {"path_results_per_tree": 11.2},
            },
        }
        violated = {
            v.floor.metric
            for v in verify_record(_fake_record(suites, smoke=True))
        }
        assert violated == {
            "fault_cache_revalidations",
            "transfer_calls_per_path",
            "evaluations_per_schedule",
            "plan_builds_per_flexible_attempt",
            "fixed.reserves_per_edge",
            "sdn.flow_rules_built_per_install",
            "ledger.sums_per_reserve",
            "csr.idle_refresh_regathers",
            "csr.refresh_link_reads",
            "closure.path_results_per_tree",
        }
        suites["failures"]["fault_cache_revalidations"] = 0
        suites["fig3a"]["transfer_calls_per_path"] = 1.0
        suites["campaign"]["evaluations_per_schedule"] = 1.0
        suites["campaign"]["plan_builds_per_flexible_attempt"] = 1.0
        suites["control_plane"] = {
            "fixed": {"reserves_per_edge": 1.0},
            "sdn": {"flow_rules_built_per_install": 0.0},
            "ledger": {"sums_per_reserve": 1.0},
            "csr": {"idle_refresh_regathers": 0, "refresh_link_reads": 0},
            "closure": {"path_results_per_tree": 0.0},
        }
        assert verify_record(_fake_record(suites, smoke=True)) == []


class TestReport:
    def test_record_labels(self):
        tagged = _fake_record({}, smoke=True)
        label = record_label(tagged)
        assert "abc1234" in label and "smoke" in label

    def test_render_headline_trend(self):
        bench_suite("scheduler", headline="scale_free_200.speedup")(
            lambda smoke=False: {}
        )
        records = [
            _fake_record({"scheduler": {"scale_free_200": {"speedup": 6.0}}}),
            _fake_record({"scheduler": {"scale_free_200": {"speedup": 6.5}}}),
        ]
        table = render_report(records)
        assert "scheduler" in table
        assert "6.5" in table

    def test_render_single_suite_expands_metrics(self):
        records = [_fake_record({"scheduler": {"a": 1.0, "b": {"c": 2.0}}})]
        table = render_report(records, suite="scheduler")
        assert "b.c" in table

    def test_render_empty_history(self):
        assert "no " in render_report([]).lower()


class TestRunner:
    def _suite_dir(self, tmp_path, name, body_extra=""):
        _write_bench_module(
            tmp_path / name,
            "test_bench_synth.py",
            f"""
            from repro.bench import bench_suite

            @bench_suite("synth", headline="value")
            def suite(smoke=False):
                \"\"\"Synthetic suite.\"\"\"
                {body_extra or 'return {"value": 2.0 if smoke else 4.0}'}
            """,
        )
        return str(tmp_path / name)

    def test_run_appends_exactly_one_record(self, tmp_path):
        bench_dir = self._suite_dir(tmp_path, "bdir_run")
        history = str(tmp_path / "hist.jsonl")
        record = run_suites(
            smoke=True, bench_dir=bench_dir, history_path=history
        )
        assert record["smoke"] is True
        assert record["suites"]["synth"]["value"] == 2.0
        assert record["suites"]["synth"]["elapsed_s"] >= 0
        stored = read_history(history)
        assert len(stored) == 1
        assert stored[0]["suites"] == record["suites"]
        assert stored[0]["cpu_count"] >= 1
        assert isinstance(stored[0]["git_sha"], str)

    def test_no_append_leaves_history_untouched(self, tmp_path):
        bench_dir = self._suite_dir(tmp_path, "bdir_noappend")
        history = str(tmp_path / "hist.jsonl")
        run_suites(bench_dir=bench_dir, history_path=history, append=False)
        assert read_history(history) == []

    def test_failing_suite_fails_run_and_appends_nothing(self, tmp_path):
        bench_dir = self._suite_dir(
            tmp_path,
            "bdir_fail",
            body_extra='raise AssertionError("shape broke")',
        )
        history = str(tmp_path / "hist.jsonl")
        with pytest.raises(ConfigurationError, match="no record appended"):
            run_suites(bench_dir=bench_dir, history_path=history)
        assert read_history(history) == []


class TestCli:
    def test_verify_exit_codes(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        # No history yet -> 2.
        assert main(["bench", "verify", "--history", history]) == 2

        append_record(history, _fake_record(PASSING_SUITES))
        assert main(["bench", "verify", "--history", history]) == 0
        assert "passed" in capsys.readouterr().out

        doctored = json.loads(json.dumps(PASSING_SUITES))
        doctored["scheduler"]["scale_free_200"]["identical"] = False
        append_record(history, _fake_record(doctored))
        assert main(["bench", "verify", "--history", history]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_run_and_report_on_synthetic_dir(self, tmp_path, capsys):
        _write_bench_module(
            tmp_path / "bdir_cli",
            "test_bench_cli.py",
            """
            from repro.bench import bench_suite

            @bench_suite("cli-synth", headline="value")
            def suite(smoke=False):
                \"\"\"CLI synthetic suite.\"\"\"
                return {"value": 3.0}
            """,
        )
        history = str(tmp_path / "hist.jsonl")
        code = main(
            [
                "bench", "run", "--smoke",
                "--bench-dir", str(tmp_path / "bdir_cli"),
                "--history", history,
            ]
        )
        assert code == 0
        assert len(read_history(history)) == 1

        capsys.readouterr()
        code = main(
            [
                "bench", "report",
                "--bench-dir", str(tmp_path / "bdir_cli"),
                "--history", history,
            ]
        )
        assert code == 0
        assert "cli-synth" in capsys.readouterr().out

    def test_suites_measure_verify_judges(self, tmp_path, capsys):
        """A full run whose timing metric misses its floor still records.

        The suite only measures; ``bench run`` appends the record and
        warns, and ``bench verify`` is the one that fails, naming the
        ``FLOORS`` entry.
        """
        bench_dir = tmp_path / "bdir_judge"
        _write_bench_module(
            bench_dir,
            "test_bench_slow.py",
            """
            from repro.bench import bench_suite

            @bench_suite("scheduler", headline="scale_free_200.cached_s")
            def suite(smoke=False):
                \"\"\"A scheduler far slower than its floor.\"\"\"
                return {
                    "scale_free_50": {"identical": True},
                    "scale_free_200": {"identical": True, "cached_s": 99.0},
                }
            """,
        )
        history = str(tmp_path / "hist.jsonl")
        record = run_suites(bench_dir=str(bench_dir), history_path=history)
        assert record["smoke"] is False
        assert read_history(history) == [record]

        code = main(
            ["bench", "run", "--bench-dir", str(bench_dir), "--history", history]
        )
        assert code == 0
        assert "floor violation" in capsys.readouterr().err
        assert len(read_history(history)) == 2

        code = main(["bench", "verify", "--history", history])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL scheduler.scale_free_200.cached_s = 99" in out

    def test_list_prints_suites(self, tmp_path, capsys):
        _write_bench_module(
            tmp_path / "bdir_list",
            "test_bench_listed.py",
            """
            from repro.bench import bench_suite

            @bench_suite("listed", headline="value")
            def suite(smoke=False):
                \"\"\"One-line description.\"\"\"
                return {"value": 1.0}
            """,
        )
        code = main(
            ["bench", "list", "--bench-dir", str(tmp_path / "bdir_list")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "listed" in out and "One-line description." in out

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        bench_dir = tmp_path / "bdir_unknown"
        _write_bench_module(
            bench_dir,
            "test_bench_known.py",
            """
            from repro.bench import bench_suite

            @bench_suite("known")
            def suite(smoke=False):
                \"\"\"Known.\"\"\"
                return {}
            """,
        )
        code = main(
            [
                "bench", "run", "--suite", "nope", "--no-append",
                "--bench-dir", str(bench_dir),
            ]
        )
        assert code == 2
        assert "unknown bench suite" in capsys.readouterr().err

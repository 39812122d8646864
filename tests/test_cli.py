"""Tests for the command-line entry point."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_known_experiments_registered(self):
        for name in ("fig1", "fig3a", "fig3b", "abl-rdma", "abl-resched"):
            assert name in EXPERIMENTS

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_fig1_prints_table(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "fixed-spff" in out
        assert "flexible-mst" in out

    def test_save_writes_json(self, tmp_path, capsys):
        path = tmp_path / "fig1.json"
        assert main(["fig1", "--save", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["name"] == "fig1"

    def test_sweep_blocks_a_demand_below_the_rate_floor(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        argv = [
            "scenarios", "sweep", "toy-triangle",
            "--set", "demand_gbps=1e-10", "--seeds", "0", "--save", str(path),
        ]
        assert main(argv) == 0
        assert "ERROR" not in capsys.readouterr().err
        rows = json.loads(path.read_text())["rows"]
        assert {row["scheduler"] for row in rows} == {"fixed-spff", "flexible-mst"}
        for row in rows:
            assert (row["served"], row["blocked"]) == (0, 1)
            assert row["bandwidth_gbps"] == 0.0

    def test_abl_rdma_runs(self, capsys):
        assert main(["abl-rdma"]) == 0
        out = capsys.readouterr().out
        assert "rdma" in out
        assert "tcp" in out


class TestErrorBoundary:
    """Every subcommand fails closed: exit 2, one ERROR line, no traceback."""

    @staticmethod
    def _one_error_line(err: str) -> str:
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1, err
        assert "ERROR" in lines[0]
        assert "Traceback" not in err
        return lines[0]

    def test_unwritable_save_path(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "x.json"
        assert main(["fig1", "--save", str(path)]) == 2
        line = self._one_error_line(capsys.readouterr().err)
        assert "No such file or directory" in line

    def test_invalid_task_parameter(self, capsys):
        argv = ["scenarios", "sweep", "toy-triangle", "--set", "demand_gbps=-5"]
        assert main(argv) == 2
        line = self._one_error_line(capsys.readouterr().err)
        assert "demand must be > 0" in line

    def test_oversized_topology_rejected(self, capsys):
        argv = ["topologies", "build", "scale-free", "--set", "n_routers=3000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be <=" in self._one_error_line(captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_set_value(self, value, capsys):
        argv = ["scenarios", "sweep", "toy-triangle", "--set", f"demand_gbps={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be finite" in self._one_error_line(captured.err)
        assert captured.out == ""


class TestTopologiesCli:
    def test_list_prints_all_families(self, capsys):
        assert main(["topologies", "list"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) >= 11
        for name in ("waxman", "clos", "isp-as1221-telstra", "multi-metro-wan"):
            assert name in out

    def test_list_tag_filter(self, capsys):
        assert main(["topologies", "list", "--tag", "composite"]) == 0
        out = capsys.readouterr().out
        assert "multi-metro-wan" in out
        assert "nsfnet" not in out

    def test_describe_shows_schema(self, capsys):
        assert main(["topologies", "describe", "waxman"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "beta" in out
        assert "seeded: yes" in out
        assert "<= 1" in out  # bounds are printed

    def test_describe_unknown_family_fails_cleanly(self, capsys):
        assert main(["topologies", "describe", "moebius"]) == 2
        assert "unknown topology family" in capsys.readouterr().err

    def test_build_prints_summary(self, capsys):
        assert (
            main(
                [
                    "topologies",
                    "build",
                    "multi-metro-wan",
                    "--set",
                    "n_regions=2",
                    "--set",
                    "sites_per_region=3",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "connected: yes" in out
        assert "regions:" in out
        assert "wan(" in out

    def test_build_save_writes_node_link_json(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        assert (
            main(
                ["topologies", "build", "nsfnet", "--save", str(path)]
            )
            == 0
        )
        data = json.loads(path.read_text())
        assert data["family"] == "nsfnet"
        assert len(data["nodes"]) == 28
        assert len(data["links"]) == 35

    def test_build_rejects_out_of_bounds(self, capsys):
        assert (
            main(
                [
                    "topologies",
                    "build",
                    "clos",
                    "--set",
                    "oversubscription=0.5",
                ]
            )
            == 2
        )
        assert "must be >=" in capsys.readouterr().err

    def test_build_bad_set_syntax_fails_cleanly(self, capsys):
        assert main(["topologies", "build", "waxman", "--set", "oops"]) == 2

    def test_build_seed_on_deterministic_family_fails_cleanly(self, capsys):
        assert main(["topologies", "build", "nsfnet", "--seed", "1"]) == 2
        assert "no seed" in capsys.readouterr().err


class TestScenarioTagCli:
    def test_family_tag_lists_scenarios(self, capsys):
        assert main(["scenarios", "list", "--tag", "family:waxman"]) == 0
        out = capsys.readouterr().out
        assert "waxman-wan" in out
        assert "nsfnet-wan" not in out

    def test_repeated_tags_are_conjunctive(self, capsys):
        assert (
            main(
                [
                    "scenarios",
                    "list",
                    "--tag",
                    "composite",
                    "--tag",
                    "resilience",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "multi-metro-wan-flaky" in out
        assert "multi-metro-wan " not in out


class TestCsvSinkCli:
    def test_sweep_streams_csv(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        assert (
            main(
                [
                    "scenarios",
                    "sweep",
                    "toy-triangle",
                    "--set",
                    "demand_gbps=5,10",
                    "--sink",
                    "csv",
                    "--sink-path",
                    str(path),
                ]
            )
            == 0
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 runs x 2 schedulers
        assert lines[0].split(",") == sorted(lines[0].split(","))

"""Tests for the figure harnesses: the paper's qualitative shapes.

These are the repository's headline assertions: running the experiment
code must reproduce the *shape* of every figure in the paper (the exact
rows are pinned in ``tests/golden/experiments/``).
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig3 import Fig3Config, run_fig3, run_fig3a, run_fig3b


@pytest.fixture(scope="module")
def fig3_result():
    """One small-but-real sweep shared by every assertion in the module."""
    config = Fig3Config(n_locals_values=(3, 9, 15), n_tasks=10, seed=3)
    return run_fig3(config)


def series(result, scheduler, y):
    return [
        row[y] for row in result.rows if row["scheduler"] == scheduler
    ]


class TestFig1:
    def test_flexible_uses_less_bandwidth(self):
        result = run_fig1()
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        assert (
            by_scheduler["flexible-mst"]["bandwidth_gbps"]
            < by_scheduler["fixed-spff"]["bandwidth_gbps"]
        )

    def test_fixed_aggregates_only_at_global(self):
        result = run_fig1()
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        assert by_scheduler["fixed-spff"]["aggregation_nodes"] == "S-G"
        assert by_scheduler["flexible-mst"]["aggregation_nodes"] != "S-G"


class TestFig3aShape:
    def test_both_schedulers_latency_grows_with_locals(self, fig3_result):
        for scheduler in ("fixed-spff", "flexible-mst"):
            values = series(fig3_result, scheduler, "round_ms")
            assert values[-1] >= values[0]

    def test_flexible_wins_at_many_locals(self, fig3_result):
        fixed = series(fig3_result, "fixed-spff", "round_ms")
        flexible = series(fig3_result, "flexible-mst", "round_ms")
        assert flexible[-1] < fixed[-1]

    def test_gap_widens_with_locals(self, fig3_result):
        fixed = series(fig3_result, "fixed-spff", "round_ms")
        flexible = series(fig3_result, "flexible-mst", "round_ms")
        gaps = [f - x for f, x in zip(fixed, flexible)]
        assert gaps[-1] > gaps[0]

    def test_all_tasks_served(self, fig3_result):
        assert all(row["blocked"] == 0 for row in fig3_result.rows)


class TestFig3bShape:
    def test_fixed_bandwidth_roughly_linear(self, fig3_result):
        fixed = series(fig3_result, "fixed-spff", "bandwidth_gbps")
        # 3 -> 15 locals: expect meaningful growth (within 2x of linear).
        assert fixed[-1] > fixed[0] * 2.0

    def test_flexible_bandwidth_sublinear(self, fig3_result):
        flexible = series(fig3_result, "flexible-mst", "bandwidth_gbps")
        # 5x locals must yield well under 5x bandwidth.
        assert flexible[-1] < flexible[0] * 4.0

    def test_flexible_below_fixed_everywhere(self, fig3_result):
        fixed = series(fig3_result, "fixed-spff", "bandwidth_gbps")
        flexible = series(fig3_result, "flexible-mst", "bandwidth_gbps")
        assert all(f < x for f, x in zip(flexible, fixed))

    def test_gap_widens_with_locals(self, fig3_result):
        fixed = series(fig3_result, "fixed-spff", "bandwidth_gbps")
        flexible = series(fig3_result, "flexible-mst", "bandwidth_gbps")
        assert (fixed[-1] - flexible[-1]) > (fixed[0] - flexible[0])


class TestPanels:
    def test_fig3a_panel_columns(self):
        config = Fig3Config(n_locals_values=(3,), n_tasks=3, seed=1)
        panel = run_fig3a(config)
        assert set(panel.columns()) == {"scheduler", "n_locals", "round_ms", "total_ms"}

    def test_fig3b_panel_columns(self):
        config = Fig3Config(n_locals_values=(3,), n_tasks=3, seed=1)
        panel = run_fig3b(config)
        assert set(panel.columns()) == {"scheduler", "n_locals", "bandwidth_gbps"}


class TestConfigValidation:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            Fig3Config(n_locals_values=())

    def test_invalid_locals_rejected(self):
        with pytest.raises(ConfigurationError):
            Fig3Config(n_locals_values=(0,))

    def test_invalid_tasks_rejected(self):
        with pytest.raises(ConfigurationError):
            Fig3Config(n_tasks=0)

    def test_determinism(self):
        config = Fig3Config(n_locals_values=(4,), n_tasks=5, seed=9)
        assert run_fig3(config).rows == run_fig3(config).rows

"""Tests for the ASCII chart renderer."""

import pytest

from repro.errors import ConfigurationError
from repro.reporting import ExperimentResult


@pytest.fixture
def result():
    res = ExperimentResult("chart", "chart rows")
    res.add(scheduler="fixed", n=3, y=100.0)
    res.add(scheduler="flex", n=3, y=50.0)
    res.add(scheduler="fixed", n=9, y=200.0)
    res.add(scheduler="flex", n=9, y=80.0)
    return res


class TestAsciiChart:
    def test_bar_lengths_proportional(self, result):
        chart = result.to_ascii_chart("n", "y", "scheduler", width=40)
        lines = chart.splitlines()[1:]
        bars = [line.count("#") for line in lines]
        assert bars[2] == 40  # the max value fills the width
        assert bars[1] == round(40 * 50 / 200)

    def test_group_labels_present(self, result):
        chart = result.to_ascii_chart("n", "y", "scheduler")
        assert "fixed" in chart
        assert "flex" in chart

    def test_no_group_mode(self, result):
        chart = result.to_ascii_chart("n", "y")
        assert "#" in chart
        assert "fixed" not in chart.splitlines()[1]

    def test_empty_result(self):
        empty = ExperimentResult("e", "none")
        assert "(no rows)" in empty.to_ascii_chart("x", "y")

    def test_zero_values_render_empty_bars(self):
        res = ExperimentResult("z", "zeros")
        res.add(n=1, y=0.0)
        chart = res.to_ascii_chart("n", "y")
        assert chart.splitlines()[1].count("#") == 0

    def test_invalid_width_rejected(self, result):
        with pytest.raises(ConfigurationError):
            result.to_ascii_chart("n", "y", width=0)

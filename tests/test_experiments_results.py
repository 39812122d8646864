"""Tests for the ExperimentResult container."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.reporting import ExperimentResult


@pytest.fixture
def result():
    res = ExperimentResult(name="demo", description="test rows")
    res.add(x=1, y=10.0, label="a")
    res.add(x=2, y=20.0, label="b")
    res.add(x=3, y=15.0, label="a")
    return res


class TestRows:
    def test_add_appends(self, result):
        assert len(result.rows) == 3

    def test_columns_in_first_appearance_order(self, result):
        assert result.columns() == ["x", "y", "label"]

    def test_columns_union_across_rows(self):
        res = ExperimentResult("u", "union")
        res.add(a=1)
        res.add(b=2)
        assert res.columns() == ["a", "b"]


class TestSeries:
    def test_pairs_in_row_order(self, result):
        assert result.series("x", "y") == [(1, 10.0), (2, 20.0), (3, 15.0)]

    def test_where_filter(self, result):
        pairs = result.series("x", "y", where=lambda r: r["label"] == "a")
        assert pairs == [(1, 10.0), (3, 15.0)]

    def test_missing_column_rejected(self, result):
        with pytest.raises(ConfigurationError):
            result.series("x", "nope")

    def test_column_extraction(self, result):
        assert result.column("y") == [10.0, 20.0, 15.0]
        assert result.column("y", where=lambda r: r["x"] > 1) == [20.0, 15.0]


class TestRendering:
    def test_table_contains_all_cells(self, result):
        table = result.to_table()
        for token in ("demo", "x", "y", "label", "a", "b"):
            assert token in table

    def test_empty_result_renders(self):
        assert "(no rows)" in ExperimentResult("e", "empty").to_table()

    def test_float_formatting(self, result):
        assert "10.00" in result.to_table(float_digits=2)

    def test_json_round_trip(self, result):
        data = json.loads(result.to_json())
        assert data["name"] == "demo"
        assert data["rows"] == result.rows

    def test_save_writes_file(self, result, tmp_path):
        path = tmp_path / "out.json"
        result.save(str(path))
        assert json.loads(path.read_text())["name"] == "demo"

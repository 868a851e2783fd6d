"""Tests for the terminal chart renderer."""

from repro.experiments.common import ExperimentResult
from repro.report import sparkline, summarise


def make_result():
    result = ExperimentResult(
        experiment="demo",
        description="a demo result",
        columns=("alpha", "netagg", "rack", "name"),
    )
    result.add_row(alpha=0.1, netagg=0.3, rack=1.0, name="a")
    result.add_row(alpha=0.5, netagg=0.5, rack=1.0, name="b")
    result.add_row(alpha=1.0, netagg=0.9, rack=1.0, name="c")
    return result


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3])
        assert line == "".join(sorted(line))
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestSummarise:
    def test_one_line_per_numeric_column(self):
        text = summarise(make_result())
        assert "alpha" in text
        assert "netagg" in text
        assert "name" not in text.splitlines()[-1]

    def test_ranges_shown(self):
        text = summarise(make_result())
        assert "0.3" in text and "0.9" in text

"""Analysis helpers."""

import math

import pytest

from repro.analysis import (
    Comparison,
    Table,
    relative_error,
    render_comparisons,
    scaling_factor,
)
from repro.analysis.stats import mean, sample_stddev


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert math.isnan(mean([]))

    def test_stddev(self):
        assert sample_stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            2.138, abs=1e-3
        )
        assert math.isnan(sample_stddev([1.0]))

    def test_scaling_factor_exact_for_proportional_data(self):
        model = [1.0, 2.0, 4.0]
        reference = [1.1, 2.2, 4.4]
        assert scaling_factor(reference, model) == pytest.approx(1.1)

    def test_scaling_factor_least_squares(self):
        # Noisy proportional data: the factor lands near the true 2.0.
        model = [1.0, 2.0, 3.0]
        reference = [2.1, 3.9, 6.1]
        assert scaling_factor(reference, model) == pytest.approx(2.0, abs=0.1)

    def test_scaling_factor_validation(self):
        with pytest.raises(ValueError):
            scaling_factor([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            scaling_factor([], [])
        with pytest.raises(ValueError):
            scaling_factor([1.0], [0.0])

    def test_relative_error(self):
        assert relative_error(100.0, 94.0) == pytest.approx(0.06)
        with pytest.raises(ValueError):
            relative_error(0.0, 1.0)


class TestTable:
    def test_render_alignment(self):
        table = Table(["name", "value"], title="Demo")
        table.add_row("short", 1.5)
        table.add_row("a-much-longer-name", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_float_formatting(self):
        table = Table(["x"])
        table.add_row(float("nan"))
        assert "n/a" in table.render()


class TestComparisons:
    def test_ratio(self):
        comp = Comparison("Table 4", "time", paper=140.0, measured=151.0, unit="s")
        assert comp.ratio == pytest.approx(151.0 / 140.0)

    def test_ratio_nan_without_paper_value(self):
        comp = Comparison("Table 3", "factor", paper=None, measured=0.94)
        assert math.isnan(comp.ratio)

    def test_render(self):
        text = render_comparisons(
            [Comparison("T4", "time", 140.0, 151.0, "s", "1-wire CBR 0")],
            title="Paper vs measured",
        )
        assert "Paper vs measured" in text
        assert "140 s" in text and "151 s" in text

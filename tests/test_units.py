"""Tests for repro.units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


class TestRates:
    def test_gbps(self):
        assert units.Gbps(1.0) == 125e6

    def test_roundtrip(self):
        assert units.to_gbps(units.Gbps(9.2)) == pytest.approx(9.2)

    def test_sizes(self):
        assert units.MB == 1000 * units.KB
        assert units.GB == 1000 * units.MB
        assert units.MiB == 1024 * units.KiB


class TestPercentile:
    def test_single_value(self):
        assert units.percentile([42.0], 99.0) == 42.0

    def test_median_odd(self):
        assert units.percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_median_even_interpolates(self):
        assert units.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert units.percentile(values, 0.0) == 1.0
        assert units.percentile(values, 100.0) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            units.percentile([], 50.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            units.percentile([1.0], 101.0)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_matches_numpy(self, values, p):
        numpy = pytest.importorskip("numpy")
        expected = float(numpy.percentile(values, p))
        assert units.percentile(values, p) == pytest.approx(expected)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=50))
    def test_p99_bounded_by_max(self, values):
        assert units.percentile(values, 99.0) <= max(values) + 1e-9

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=50))
    def test_extremes_hit_min_and_max(self, values):
        assert units.percentile(values, 0.0) == min(values)
        assert units.percentile(values, 100.0) == max(values)

    @given(st.floats(0, 1e9), st.floats(0, 100))
    def test_single_element_is_constant(self, value, p):
        assert units.percentile([value], p) == value

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_result_within_data_range(self, values, p):
        result = units.percentile(values, p)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=50),
           st.integers(1, 99))
    def test_matches_statistics_quantiles(self, values, p):
        # statistics.quantiles with method="inclusive" uses the same
        # linear interpolation as numpy's default percentile.
        import statistics

        cut = statistics.quantiles(values, n=100,
                                   method="inclusive")[p - 1]
        assert units.percentile(values, float(p)) == pytest.approx(
            cut, abs=1e-6)


class TestMean:
    def test_basic(self):
        assert units.mean([1.0, 2.0, 3.0]) == 2.0

    def test_accepts_generators(self):
        assert units.mean(x for x in (2.0, 4.0)) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            units.mean([])

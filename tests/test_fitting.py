"""Tests of the growth-rate fitting helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.fitting import classify_growth, fit_exponential, fit_power_law


class TestPowerLawFit:
    def test_exact_power_law_is_recovered(self):
        xs = [1, 2, 4, 8, 16]
        ys = [5 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.kind == "power"
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(5.0)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    @given(
        degree=st.integers(min_value=1, max_value=6),
        constant=st.floats(min_value=0.5, max_value=100),
    )
    def test_recovers_any_polynomial_degree(self, degree, constant):
        xs = [2, 3, 5, 9, 17]
        ys = [constant * x**degree for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.slope == pytest.approx(degree, rel=1e-6)

    def test_slope_recovers_the_degree_on_doubling_sizes(self):
        """The slope is the growth exponent the bound experiments report."""
        xs = [2, 4, 8, 16, 32]
        assert fit_power_law(xs, [x**3 for x in xs]).slope == pytest.approx(3.0)

    def test_exponential_data_gives_a_slope_beyond_small_degrees(self):
        xs = [2, 4, 8, 16]
        assert fit_power_law(xs, [2**x for x in xs]).slope > 3

    def test_rejects_short_mismatched_and_identical_sizes(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1])
        with pytest.raises(ValueError):
            fit_power_law([3, 3, 3], [1, 2, 3])


class TestExponentialFit:
    def test_exact_exponential_is_recovered(self):
        xs = [1, 2, 3, 4, 5]
        ys = [3 * 2**x for x in xs]
        fit = fit_exponential(xs, ys)
        assert fit.kind == "exponential"
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)


class TestClassification:
    def test_polynomial_data(self):
        xs = [2, 4, 8, 16, 32]
        assert classify_growth(xs, [x**4 for x in xs]) == "polynomial"

    def test_exponential_data(self):
        xs = [1, 2, 4, 8, 16]
        assert classify_growth(xs, [3**x for x in xs]) == "exponential"

    def test_flat_data_counts_as_polynomial(self):
        xs = [1, 2, 3, 4, 5]
        assert classify_growth(xs, [7, 8, 7, 8, 7]) == "polynomial"

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, -2, 3])
        with pytest.raises(ValueError):
            fit_exponential([0, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, 2])

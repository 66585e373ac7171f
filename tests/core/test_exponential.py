"""Shifted exponential distribution: closed forms from Section 3.3."""

import math

import numpy as np
import pytest

from repro.core.distributions import ShiftedExponential
from repro.core.order_stats import expected_minimum


class TestConstruction:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            ShiftedExponential(x0=0.0, lam=0.0)
        with pytest.raises(ValueError):
            ShiftedExponential(x0=0.0, lam=-1.0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            ShiftedExponential(x0=-1.0, lam=1.0)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ValueError):
            ShiftedExponential(x0=math.inf, lam=1.0)
        with pytest.raises(ValueError):
            ShiftedExponential(x0=0.0, lam=math.nan)

    def test_from_scale(self):
        dist = ShiftedExponential.from_scale(x0=10.0, scale=50.0)
        assert dist.lam == pytest.approx(0.02)
        with pytest.raises(ValueError):
            ShiftedExponential.from_scale(x0=0.0, scale=0.0)

    def test_params_and_support(self):
        dist = ShiftedExponential(x0=100.0, lam=0.001)
        assert dist.params() == {"x0": 100.0, "lam": 0.001}
        assert dist.support() == (100.0, math.inf)



class TestDistributionEquality:
    def test_equality_and_hash(self):
        a = ShiftedExponential(x0=1.0, lam=2.0)
        b = ShiftedExponential(x0=1.0, lam=2.0)
        c = ShiftedExponential(x0=1.0, lam=3.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a distribution"


class TestDensityAndCdf:
    def test_pdf_zero_below_shift(self):
        dist = ShiftedExponential(x0=100.0, lam=0.01)
        assert dist.pdf(50.0) == 0.0
        assert dist.cdf(50.0) == 0.0
        assert dist.sf(50.0) == 1.0

    def test_pdf_value_at_shift(self):
        dist = ShiftedExponential(x0=100.0, lam=0.01)
        assert dist.pdf(100.0) == pytest.approx(0.01)

    def test_cdf_matches_formula(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        t = 600.0
        assert dist.cdf(t) == pytest.approx(1.0 - math.exp(-1e-3 * 500.0))

    def test_pdf_integrates_to_one(self):
        dist = ShiftedExponential(x0=5.0, lam=0.5)
        grid = np.linspace(5.0, 60.0, 20001)
        mass = np.trapezoid(dist.pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_vectorised_output_shape(self):
        dist = ShiftedExponential(x0=1.0, lam=1.0)
        values = dist.pdf(np.array([0.0, 1.0, 2.0]))
        assert values.shape == (3,)
        assert isinstance(dist.pdf(2.0), float)


class TestMoments:
    def test_mean_formula(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        assert dist.mean() == pytest.approx(1100.0)

    def test_variance_is_scale_squared(self):
        dist = ShiftedExponential(x0=100.0, lam=0.25)
        assert dist.variance() == pytest.approx(16.0)

    def test_median_and_quantile(self):
        dist = ShiftedExponential(x0=10.0, lam=0.1)
        assert dist.median() == pytest.approx(10.0 + math.log(2) / 0.1)
        assert dist.quantile(0.0) == 10.0
        assert dist.quantile(1.0) == math.inf
        assert dist.cdf(dist.quantile(0.73)) == pytest.approx(0.73)

    def test_sample_statistics(self, rng):
        dist = ShiftedExponential(x0=100.0, lam=1e-2)
        draws = dist.sample(rng, 20000)
        assert draws.min() >= 100.0
        assert np.mean(draws) == pytest.approx(dist.mean(), rel=0.03)


class TestMultiwalkClosedForms:
    def test_expected_minimum_formula(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        assert dist.expected_minimum(1) == pytest.approx(1100.0)
        assert dist.expected_minimum(16) == pytest.approx(100.0 + 1000.0 / 16)

    def test_expected_minimum_matches_numeric_integration(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        for n in (1, 2, 10, 64, 256):
            assert dist.expected_minimum(n) == pytest.approx(expected_minimum(dist, n), rel=1e-8)

    def test_speedup_formula_paper_section_3_3(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        n = 64
        expected = (100.0 + 1000.0) / (100.0 + 1000.0 / n)
        assert dist.speedup(n) == pytest.approx(expected)

    def test_speedup_limit(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        assert dist.speedup_limit() == pytest.approx(1.0 + 1.0 / (100.0 * 1e-3))

    def test_zero_shift_gives_linear_speedup(self):
        dist = ShiftedExponential(x0=0.0, lam=1e-3)
        for n in (1, 7, 128):
            assert dist.speedup(n) == pytest.approx(float(n))
        assert math.isinf(dist.speedup_limit())

    def test_tangent_at_origin(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        assert dist.speedup_tangent_at_origin() == pytest.approx(1.1)

    def test_expected_minimum_rejects_bad_core_count(self):
        dist = ShiftedExponential(x0=0.0, lam=1.0)
        with pytest.raises(ValueError):
            dist.expected_minimum(0)

    def test_min_of_matches_rescaled_exponential(self, rng):
        dist = ShiftedExponential(x0=50.0, lam=0.02)
        n = 8
        min_dist = dist.min_of(n)
        equivalent = ShiftedExponential(x0=50.0, lam=0.02 * n)
        grid = np.linspace(50.0, 400.0, 50)
        np.testing.assert_allclose(min_dist.cdf(grid), equivalent.cdf(grid), atol=1e-12)

"""Numerical order-statistic machinery against closed forms and Monte Carlo."""

import math
import warnings

import pytest

from repro.core import order_stats
from repro.core.distributions import (
    GammaRuntime,
    LogNormalRuntime,
    ShiftedExponential,
    TruncatedGaussian,
    UniformRuntime,
    WeibullRuntime,
)
from repro.core.order_stats import (
    expected_minimum,
    expected_minimum_quantile_form,
    expected_minimum_survival_form,
    order_statistic_moment,
    raw_moment,
)


class TestExpectedMinimum:
    def test_exponential_closed_form(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        for n in (1, 2, 16, 256, 4096):
            exact = 100.0 + 1000.0 / n
            assert expected_minimum_survival_form(dist, n) == pytest.approx(exact, rel=1e-7)
            assert expected_minimum_quantile_form(dist, n) == pytest.approx(exact, rel=1e-6)

    def test_uniform_closed_form(self):
        dist = UniformRuntime(low=0.0, high=12.0)
        for n in (1, 3, 11, 99):
            assert expected_minimum(dist, n) == pytest.approx(12.0 / (n + 1), rel=1e-7)

    def test_methods_agree_on_lognormal(self):
        dist = LogNormalRuntime(mu=5.0, sigma=1.3, x0=500.0)
        for n in (2, 32, 256):
            survival = expected_minimum_survival_form(dist, n)
            quantile = expected_minimum_quantile_form(dist, n)
            assert survival == pytest.approx(quantile, rel=1e-4)

    def test_monte_carlo_agreement_gamma(self, rng):
        dist = GammaRuntime(shape=2.0, scale=50.0, x0=20.0)
        n = 12
        draws = dist.sample(rng, (30000, n)).min(axis=1)
        assert expected_minimum(dist, n) == pytest.approx(draws.mean(), rel=0.02)

    def test_monte_carlo_agreement_gaussian(self, rng):
        dist = TruncatedGaussian(mu=25.0, sigma=10.0, lower=0.0)
        n = 10
        draws = dist.sample(rng, (30000, n)).min(axis=1)
        assert expected_minimum(dist, n) == pytest.approx(draws.mean(), rel=0.02)

    def test_rejects_bad_arguments(self):
        dist = ShiftedExponential(x0=0.0, lam=1.0)
        with pytest.raises(ValueError):
            expected_minimum(dist, 0)

    def test_uses_the_survival_form(self):
        dist = GammaRuntime(shape=2.0, scale=50.0, x0=10.0)
        for n in (1, 8, 64):
            assert expected_minimum(dist, n) == expected_minimum_survival_form(dist, n)

    def test_falls_back_to_quantile_form_when_survival_is_not_finite(self, monkeypatch):
        dist = LogNormalRuntime(mu=5.0, sigma=1.3, x0=500.0)
        monkeypatch.setattr(order_stats, "expected_minimum_survival_form", lambda d, n: math.nan)
        assert expected_minimum(dist, 32) == expected_minimum_quantile_form(dist, 32)

    def test_falls_back_to_quantile_form_when_quad_flags_the_survival_form(self):
        # A sharp knee just above a large shift: quad reports "extremely bad
        # integrand behavior" on the survival integral.
        dist = WeibullRuntime(shape=0.3, scale=301.415, x0=1e4)
        exact = 1e4 + 301.415 * 512 ** (-1 / 0.3) * math.gamma(1 + 1 / 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(expected_minimum_survival_form(dist, 512))
            value = expected_minimum(dist, 512)
        assert value == expected_minimum_quantile_form(dist, 512)
        assert value == pytest.approx(exact, rel=1e-10)

    def test_large_core_count_approaches_support_bound(self):
        dist = LogNormalRuntime(mu=4.0, sigma=1.0, x0=250.0)
        value = expected_minimum(dist, 100_000)
        assert value == pytest.approx(250.0, rel=0.02)
        assert value >= 250.0


class TestOrderStatisticMoment:
    def test_k_equal_one_is_expected_minimum(self):
        dist = ShiftedExponential(x0=10.0, lam=0.1)
        for n in (2, 8):
            assert order_statistic_moment(dist, n=n, k=1) == pytest.approx(
                dist.expected_minimum(n), rel=1e-6
            )

    def test_k_equal_n_is_expected_maximum_exponential(self):
        """E[max of n Exp(lambda)] = H_n / lambda (harmonic number)."""
        lam = 0.02
        dist = ShiftedExponential(x0=0.0, lam=lam)
        n = 5
        harmonic = sum(1.0 / i for i in range(1, n + 1))
        assert order_statistic_moment(dist, n=n, k=n) == pytest.approx(harmonic / lam, rel=1e-6)

    def test_uniform_order_statistics_are_beta_means(self):
        """E[X_(k:n)] = k/(n+1) for Uniform(0, 1)-like distributions."""
        dist = UniformRuntime(low=0.0, high=1.0)
        n = 7
        for k in (1, 3, 7):
            assert order_statistic_moment(dist, n=n, k=k) == pytest.approx(k / (n + 1), rel=1e-6)

    def test_second_moment_uniform(self):
        """E[X_(1:n)^2] for Uniform(0,1) equals 2/((n+1)(n+2))."""
        dist = UniformRuntime(low=0.0, high=1.0)
        n = 4
        expected = 2.0 / ((n + 1) * (n + 2))
        assert order_statistic_moment(dist, n=n, k=1, moment=2) == pytest.approx(expected, rel=1e-6)

    def test_rejects_bad_indices(self):
        dist = UniformRuntime(low=0.0, high=1.0)
        with pytest.raises(ValueError):
            order_statistic_moment(dist, n=0, k=1)
        with pytest.raises(ValueError):
            order_statistic_moment(dist, n=3, k=4)
        with pytest.raises(ValueError):
            order_statistic_moment(dist, n=3, k=1, moment=0)


class TestRawMoment:
    def test_first_moment_is_mean(self):
        dist = GammaRuntime(shape=3.0, scale=5.0, x0=2.0)
        assert raw_moment(dist, 1) == pytest.approx(dist.mean(), rel=1e-7)

    def test_second_moment_gives_variance(self):
        dist = ShiftedExponential(x0=0.0, lam=0.5)
        second = raw_moment(dist, 2)
        assert second - dist.mean() ** 2 == pytest.approx(dist.variance(), rel=1e-6)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            raw_moment(ShiftedExponential(x0=0.0, lam=1.0), 0)

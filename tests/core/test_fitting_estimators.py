"""Per-family parameter estimators recover known parameters from samples."""

import numpy as np
import pytest

from repro.core.distributions import (
    GammaRuntime,
    LogNormalRuntime,
    ParetoRuntime,
    ShiftedExponential,
    TruncatedGaussian,
    UniformRuntime,
    WeibullRuntime,
)
from repro.core.fitting.estimators import ESTIMATORS, estimate_parameters


class TestDispatch:
    def test_every_registered_family_has_an_estimator(self):
        data = np.linspace(10.0, 100.0, 50)
        for family in ESTIMATORS:
            dist = estimate_parameters(data, family, x0=10.0)
            assert dist.mean() > 0.0

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            estimate_parameters(np.array([1.0, 2.0]), "no-such-family", x0=0.0)

    def test_unknown_family_lists_the_known_ones(self):
        with pytest.raises(KeyError, match="shifted_exponential"):
            estimate_parameters(np.array([1.0, 2.0]), "nope", x0=0.0)

    def test_paper_families_are_fittable(self):
        for name in (
            "shifted_exponential",
            "shifted_lognormal",
            "truncated_gaussian",
            "shifted_gamma",
            "shifted_weibull",
            "pareto",
            "uniform",
        ):
            assert name in ESTIMATORS

    def test_estimators_return_their_family(self):
        data = np.linspace(10.0, 100.0, 50)
        for family in ESTIMATORS:
            assert estimate_parameters(data, family, x0=10.0).name == family

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            estimate_parameters(np.array([1.0]), "shifted_exponential", x0=0.0)


class TestShiftedExponentialEstimator:
    def test_paper_rule(self):
        """lambda = 1/(mean - x0) — the exact rule in Section 6.1."""
        data = np.array([1217.0, 50_000.0, 150_000.0, 240_000.0])
        dist = estimate_parameters(data, "shifted_exponential", x0=1217.0)
        assert isinstance(dist, ShiftedExponential)
        assert dist.lam == pytest.approx(1.0 / (data.mean() - 1217.0))

    def test_recovers_parameters_from_large_sample(self, rng):
        true = ShiftedExponential(x0=1000.0, lam=1e-4)
        data = true.sample(rng, 4000)
        fitted = estimate_parameters(data, "shifted_exponential", x0=float(data.min()))
        assert fitted.lam == pytest.approx(true.lam, rel=0.05)


class TestLognormalEstimator:
    def test_recovers_parameters(self, rng):
        true = LogNormalRuntime(mu=12.0, sigma=1.3, x0=6000.0)
        data = true.sample(rng, 4000)
        fitted = estimate_parameters(data, "shifted_lognormal", x0=float(data.min()))
        assert isinstance(fitted, LogNormalRuntime)
        assert fitted.mu == pytest.approx(12.0, rel=0.02)
        assert fitted.sigma == pytest.approx(1.3, rel=0.08)

    def test_handles_minimum_observation_on_boundary(self):
        """Shifting by the minimum puts one point at zero excess; the estimator drops it."""
        data = np.array([100.0, 150.0, 230.0, 500.0, 900.0])
        fitted = estimate_parameters(data, "shifted_lognormal", x0=100.0)
        assert np.isfinite(fitted.mu)
        assert fitted.sigma > 0.0


class TestGaussianEstimator:
    def test_moment_matching(self, rng):
        data = rng.normal(50.0, 5.0, size=3000)
        data = data[data > 0]
        fitted = estimate_parameters(data, "truncated_gaussian", x0=0.0)
        assert isinstance(fitted, TruncatedGaussian)
        assert fitted.mu == pytest.approx(50.0, rel=0.05)
        assert fitted.sigma == pytest.approx(5.0, rel=0.1)


class TestGammaEstimator:
    def test_method_of_moments(self, rng):
        true = GammaRuntime(shape=3.0, scale=20.0, x0=0.0)
        data = true.sample(rng, 5000)
        fitted = estimate_parameters(data, "shifted_gamma", x0=0.0)
        assert isinstance(fitted, GammaRuntime)
        assert fitted.shape == pytest.approx(3.0, rel=0.15)
        assert fitted.scale == pytest.approx(20.0, rel=0.15)


class TestWeibullEstimator:
    @pytest.mark.parametrize("shape", [0.7, 1.0, 2.5])
    def test_recovers_shape(self, rng, shape):
        true = WeibullRuntime(shape=shape, scale=100.0, x0=0.0)
        data = true.sample(rng, 6000)
        fitted = estimate_parameters(data, "shifted_weibull", x0=0.0)
        assert isinstance(fitted, WeibullRuntime)
        assert fitted.shape == pytest.approx(shape, rel=0.15)
        assert fitted.mean() == pytest.approx(true.mean(), rel=0.05)

    def test_degenerate_sample_falls_back_to_exponential_shape(self):
        data = np.array([10.0, 10.0, 10.0])
        fitted = estimate_parameters(data, "shifted_weibull", x0=0.0)
        assert fitted.shape == pytest.approx(1.0)


class TestParetoAndUniformEstimators:
    def test_pareto_mle(self, rng):
        true = ParetoRuntime(x_m=5.0, alpha=2.5)
        data = true.sample(rng, 5000)
        fitted = estimate_parameters(data, "pareto", x0=0.0)
        assert isinstance(fitted, ParetoRuntime)
        assert fitted.x_m == pytest.approx(5.0, rel=0.01)
        assert fitted.alpha == pytest.approx(2.5, rel=0.1)

    def test_uniform_range_fit(self):
        data = np.array([2.0, 9.0, 5.0, 7.5])
        fitted = estimate_parameters(data, "uniform", x0=0.0)
        assert isinstance(fitted, UniformRuntime)
        assert fitted.low == 2.0
        assert fitted.high == 9.0

    def test_uniform_degenerate_sample(self):
        fitted = estimate_parameters(np.array([4.0, 4.0]), "uniform", x0=0.0)
        assert fitted.high > fitted.low

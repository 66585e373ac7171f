"""High-level prediction API: observations in, speed-up curve out."""


import numpy as np
import pytest

from repro.core.distributions import LogNormalRuntime, ShiftedExponential
from repro.core.distributions.empirical import EmpiricalDistribution
from repro.core.prediction import (
    PredictionResult,
    predict_speedup_curve,
    predict_speedup_empirical,
    predict_speedup_from_distribution,
)


class TestPredictFromDistribution:
    def test_exponential_known_values(self):
        dist = ShiftedExponential(x0=100.0, lam=1e-3)
        result = predict_speedup_from_distribution(dist, cores=[16, 256])
        assert result.family == "shifted_exponential"
        assert result.fit is None
        assert result.speedup(16) == pytest.approx(1100.0 / (100.0 + 1000.0 / 16))
        assert result.limit == pytest.approx(11.0)

    def test_speedup_for_unlisted_core_count_computed_on_demand(self):
        dist = ShiftedExponential(x0=0.0, lam=1.0)
        result = predict_speedup_from_distribution(dist, cores=[4])
        assert result.speedup(10) == pytest.approx(10.0)


class TestPredictFromObservations:
    def test_forced_family_matches_manual_pipeline(self, rng):
        data = ShiftedExponential(x0=2000.0, lam=5e-5).sample(rng, 500)
        result = predict_speedup_curve(data, cores=[16, 64, 256], family="shifted_exponential",
                                       shift_rule="min")
        assert isinstance(result, PredictionResult)
        assert result.family == "shifted_exponential"
        x0 = float(np.min(data))
        lam = 1.0 / (float(np.mean(data)) - x0)
        manual = ShiftedExponential(x0=x0, lam=lam)
        for n in (16, 64, 256):
            assert result.speedup(n) == pytest.approx(manual.speedup(n), rel=1e-9)

    def test_automatic_selection_accepts_good_fit(self, rng):
        data = LogNormalRuntime(mu=9.0, sigma=1.2, x0=0.0).sample(rng, 600)
        result = predict_speedup_curve(data, cores=[16, 256])
        assert result.fit is not None
        assert result.fit.accepted()
        assert result.speedup(256) > result.speedup(16) > 1.0

    def test_prediction_close_to_true_model(self, rng):
        """Fitting a sample from a known model recovers its speed-up within a few percent."""
        true = ShiftedExponential(x0=1000.0, lam=1e-4)
        data = true.sample(rng, 2000)
        result = predict_speedup_curve(data, cores=[16, 64, 256], family="shifted_exponential",
                                       shift_rule="min")
        for n in (16, 64, 256):
            assert result.speedup(n) == pytest.approx(true.speedup(n), rel=0.1)

    def test_summary_mentions_family_and_cores(self, rng):
        data = ShiftedExponential(x0=0.0, lam=0.01).sample(rng, 100)
        result = predict_speedup_curve(data, cores=[8, 32])
        text = result.summary()
        assert "family" in text
        assert "32" in text

    def test_curve_is_the_prediction_of_the_fitted_distribution(self, rng):
        data = LogNormalRuntime(mu=6.0, sigma=1.0, x0=0.0).sample(rng, 300)
        result = predict_speedup_curve(data, cores=[4, 64])
        direct = predict_speedup_from_distribution(result.distribution, cores=[4, 64])
        assert result.curve == direct.curve
        assert result.limit == direct.limit
        assert result.fit is not None
        assert result.family == result.fit.family

    def test_speedups_property(self, rng):
        data = ShiftedExponential(x0=0.0, lam=0.01).sample(rng, 100)
        result = predict_speedup_curve(data, cores=[8, 32], family="shifted_exponential")
        assert set(result.speedups.keys()) == {8, 32}


class TestEmpiricalPrediction:
    def test_empirical_matches_block_minimum_expectation(self, rng):
        data = rng.lognormal(4.0, 1.0, size=300)
        result = predict_speedup_empirical(data, cores=[2, 16])
        assert result.family == "empirical"
        assert result.fit is None
        # Exact check against the order-statistics formula for n = 2.
        sorted_data = np.sort(data)
        m = sorted_data.size
        weights = ((np.arange(m, 0, -1) / m) ** 2) - ((np.arange(m - 1, -1, -1) / m) ** 2)
        expected_min = float(np.dot(sorted_data, weights))
        assert result.speedup(2) == pytest.approx(data.mean() / expected_min)

    def test_empirical_and_parametric_agree_for_large_exponential_sample(self, rng):
        data = ShiftedExponential(x0=0.0, lam=1e-3).sample(rng, 5000)
        parametric = predict_speedup_curve(data, cores=[16], family="shifted_exponential",
                                           shift_rule="zero")
        empirical = predict_speedup_empirical(data, cores=[16])
        assert empirical.speedup(16) == pytest.approx(parametric.speedup(16), rel=0.1)

    def test_empirical_is_the_prediction_of_the_sample_distribution(self, rng):
        data = rng.exponential(20.0, size=150)
        result = predict_speedup_empirical(data, cores=[2, 8])
        direct = predict_speedup_from_distribution(EmpiricalDistribution(data), cores=[2, 8])
        assert result.curve == direct.curve
        assert result.limit == direct.limit
        assert result.family == direct.family

    def test_empirical_limit_is_mean_over_minimum(self, rng):
        data = np.array([10.0, 30.0, 50.0])
        result = predict_speedup_empirical(data, cores=[4])
        assert result.limit == pytest.approx(30.0 / 10.0)

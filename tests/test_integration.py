"""End-to-end integration tests across all layers.

These tests exercise the full paper pipeline — solver -> sequential
observations -> distribution fit -> prediction -> simulated multi-walk
validation — on instances small enough to keep the suite fast, plus
synthetic ground-truth pipelines where the correct answer is known exactly.
"""


import numpy as np
import pytest

from repro import (
    ShiftedExponential,
    predict_speedup_curve,
    simulate_multiwalk_speedups,
)
from repro.core.distributions import LogNormalRuntime
from repro.core.prediction import predict_speedup_empirical
from repro.csp.problems import CostasArrayProblem, NQueensProblem
from repro.engine import collect_batch
from repro.sat import random_planted_ksat
from repro.solvers import AdaptiveSearch, AdaptiveSearchConfig, WalkSAT, WalkSATConfig


class TestSyntheticGroundTruth:
    """When observations come from a known model, the prediction must recover it."""

    def test_exponential_pipeline_recovers_linear_scaling(self, rng):
        true = ShiftedExponential(x0=0.0, lam=1e-4)
        observations = true.sample(rng, 3000)
        cores = [16, 64, 256]
        prediction = predict_speedup_curve(
            observations, cores, family="shifted_exponential", shift_rule="zero_if_negligible"
        )
        simulated = simulate_multiwalk_speedups(
            observations, cores, n_parallel_runs=2000, rng=rng
        )
        for n in cores:
            assert prediction.speedup(n) == pytest.approx(n, rel=0.1)
            assert simulated.speedup(n) == pytest.approx(prediction.speedup(n), rel=0.25)

    def test_shifted_exponential_pipeline_recovers_finite_limit(self, rng):
        true = ShiftedExponential(x0=1000.0, lam=1e-3)
        observations = true.sample(rng, 3000)
        prediction = predict_speedup_curve(
            observations, [16, 256], family="shifted_exponential", shift_rule="min"
        )
        assert prediction.limit == pytest.approx(true.speedup_limit(), rel=0.1)
        simulated = simulate_multiwalk_speedups(observations, [16, 256],
                                                n_parallel_runs=2000, rng=rng)
        assert prediction.speedup(256) == pytest.approx(simulated.speedup(256), rel=0.25)

    def test_lognormal_pipeline_parametric_vs_empirical(self, rng):
        true = LogNormalRuntime(mu=10.0, sigma=1.3, x0=0.0)
        observations = true.sample(rng, 2000)
        cores = [16, 128]
        parametric = predict_speedup_curve(observations, cores, family="shifted_lognormal",
                                           shift_rule="zero")
        empirical = predict_speedup_empirical(observations, cores)
        for n in cores:
            assert parametric.speedup(n) == pytest.approx(empirical.speedup(n), rel=0.35)


class TestSolverPipeline:
    """The full paper workflow on a real (small) Adaptive Search benchmark."""

    @pytest.fixture(scope="class")
    def costas_observations(self):
        solver = AdaptiveSearch(CostasArrayProblem(8), AdaptiveSearchConfig(max_iterations=100_000))
        return collect_batch(solver, 60, base_seed=99)

    def test_all_runs_solve(self, costas_observations):
        assert costas_observations.success_rate() == 1.0

    def test_prediction_matches_simulated_multiwalk(self, costas_observations):
        iterations = costas_observations.values("iterations")
        cores = [4, 16, 64]
        prediction = predict_speedup_curve(
            iterations, cores, family="shifted_exponential", shift_rule="zero_if_negligible"
        )
        simulated = simulate_multiwalk_speedups(
            costas_observations, cores, n_parallel_runs=400, rng=np.random.default_rng(0)
        )
        for n in cores:
            ratio = prediction.speedup(n) / simulated.speedup(n)
            assert 0.4 < ratio < 2.5, (n, prediction.speedup(n), simulated.speedup(n))

    def test_empirical_predictor_brackets_simulation(self, costas_observations):
        iterations = costas_observations.values("iterations")
        empirical = predict_speedup_empirical(iterations, [16])
        simulated = simulate_multiwalk_speedups(
            costas_observations, [16], n_parallel_runs=400, rng=np.random.default_rng(1)
        )
        assert empirical.speedup(16) == pytest.approx(simulated.speedup(16), rel=0.3)

    def test_real_multiwalk_outcome_consistent_with_prediction(self, costas_observations):
        """An actually-executed 8-walk run should usually beat the sequential mean."""
        solver = AdaptiveSearch(CostasArrayProblem(8), AdaptiveSearchConfig(max_iterations=100_000))
        outcomes = []
        for seed in range(5):
            batch = collect_batch(solver, 8, base_seed=seed)
            outcomes.append(batch.iterations[batch.solved].min())
        assert np.mean(outcomes) < costas_observations.values("iterations").mean()


class TestWalkSATPipeline:
    def test_portfolio_prediction_for_sat(self, rng):
        formula, _ = random_planted_ksat(40, 160, rng=rng)
        solver = WalkSAT(formula, WalkSATConfig(max_flips=100_000))
        batch = collect_batch(solver, 40, base_seed=5)
        assert batch.success_rate() == 1.0
        prediction = predict_speedup_curve(batch.values("iterations"), [8, 32])
        assert prediction.speedup(32) > prediction.speedup(8) > 1.0

    def test_other_las_vegas_algorithm_on_permutation_problem(self):
        """The prediction applies to any Las Vegas algorithm, not just Adaptive Search."""
        from repro.solvers import RandomRestartSearch

        solver = RandomRestartSearch(NQueensProblem(10))
        batch = collect_batch(solver, 40, base_seed=3)
        prediction = predict_speedup_empirical(batch.values("iterations"), [4, 16])
        assert prediction.speedup(16) >= prediction.speedup(4) >= 1.0

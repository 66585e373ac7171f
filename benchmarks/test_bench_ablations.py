"""Ablation benches for the design choices called out in DESIGN.md §6.

1. Shift-estimation rule (min vs quantile vs bias-corrected vs zero).
2. Distribution-family choice on the same data.
3. Number of sequential observations needed for a stable prediction.
4. Parametric vs nonparametric (empirical) predictor.
5. Las Vegas algorithm choice (Adaptive Search vs random-restart baseline).

Each bench times the ablated analysis and prints a compact comparison table;
assertions pin down the qualitative conclusions (e.g. the Costas-style
zero-shift rule is what produces near-linear predictions).
"""

import numpy as np
import pytest

from benchmarks.conftest import print_once
from repro.core.fitting import fit_distribution
from repro.core.prediction import predict_speedup_curve, predict_speedup_empirical
from repro.core.fitting.shift import SHIFT_RULES
from repro.engine import collect_batch
from repro.experiments.report import format_table
from repro.multiwalk.simulate import simulate_multiwalk_speedups
from repro.solvers.random_restart import RandomRestartSearch

CORES = (16, 64, 256)


@pytest.mark.benchmark(group="ablations")
def test_ablation_shift_rule(benchmark, request, quick_observations):
    """How the shift rule changes the predicted curve for the AI benchmark."""
    values = quick_observations["AI"].values("iterations")

    def run():
        out = {}
        for rule in ("min", "quantile", "bias_corrected", "zero", "zero_if_negligible"):
            result = predict_speedup_curve(
                values, CORES, family="shifted_exponential", shift_rule=rule
            )
            out[rule] = result
        return out

    results = benchmark(run)
    rows = [
        [rule, res.distribution.params()["x0"], res.limit] + [res.speedup(c) for c in CORES]
        for rule, res in results.items()
    ]
    print_once(
        request,
        format_table(
            ["shift rule", "x0", "limit"] + [f"k={c}" for c in CORES],
            rows,
            title="Ablation: shift-estimation rule (AI benchmark)",
            float_format="{:.2f}",
        ),
    )
    # Zero shift forces exactly linear predicted scaling; the min rule gives a
    # finite limit — the dichotomy Section 7 of the paper discusses.
    assert results["zero"].speedup(256) == pytest.approx(256.0, rel=1e-6)
    assert np.isfinite(results["min"].limit)
    assert results["min"].speedup(256) <= results["zero"].speedup(256)
    assert set(results) <= set(SHIFT_RULES)


@pytest.mark.benchmark(group="ablations")
def test_ablation_family_choice(benchmark, request, quick_observations):
    """KS p-values and predictions of every candidate family on the MS data."""
    values = quick_observations["MS"].values("iterations")
    families = ("shifted_exponential", "shifted_lognormal", "shifted_gamma",
                "shifted_weibull", "truncated_gaussian")

    def run():
        return {family: fit_distribution(values, family, shift_rule="min") for family in families}

    fits = benchmark(run)
    rows = [
        [family, fit.statistic, fit.p_value, fit.aic, fit.distribution.speedup(64)]
        for family, fit in fits.items()
    ]
    print_once(
        request,
        format_table(
            ["family", "KS D", "p-value", "AIC", "predicted G_64"],
            rows,
            title="Ablation: distribution family (MS benchmark)",
            float_format="{:.3g}",
        ),
    )
    # The gaussian is a clearly worse description of the skewed MS data than
    # the lognormal the paper selects.
    assert fits["shifted_lognormal"].p_value >= fits["truncated_gaussian"].p_value


@pytest.mark.benchmark(group="ablations")
def test_ablation_sample_size(benchmark, request, quick_observations):
    """Stability of the 64-core prediction as the number of observations grows."""
    values = quick_observations["Costas"].values("iterations")
    reference = simulate_multiwalk_speedups(
        values, [64], n_parallel_runs=2000, rng=np.random.default_rng(0)
    ).speedup(64)
    sizes = [10, 20, 40, len(values)]

    def run():
        out = {}
        for size in sizes:
            subset = values[:size]
            out[size] = predict_speedup_empirical(subset, [64]).speedup(64)
        return out

    predictions = benchmark(run)
    rows = [[size, predictions[size], reference] for size in sizes]
    print_once(
        request,
        format_table(
            ["observations", "predicted G_64", "simulated G_64 (all runs)"],
            rows,
            title="Ablation: number of sequential observations (Costas benchmark)",
            float_format="{:.1f}",
        ),
    )
    # The full-sample prediction is the closest (or tied) to the reference.
    errors = {size: abs(pred - reference) for size, pred in predictions.items()}
    assert errors[len(values)] <= min(errors[10], errors[20]) + 0.25 * reference


@pytest.mark.benchmark(group="ablations")
def test_ablation_parametric_vs_empirical(benchmark, request, quick_observations):
    """Parametric fit vs nonparametric empirical predictor on every benchmark."""

    def run():
        out = {}
        for key, batch in quick_observations.items():
            values = batch.values("iterations")
            parametric = predict_speedup_curve(values, CORES)
            empirical = predict_speedup_empirical(values, CORES)
            out[key] = (parametric, empirical)
        return out

    results = benchmark(run)
    rows = []
    for key, (parametric, empirical) in results.items():
        rows.append([key, parametric.family] + [parametric.speedup(c) for c in CORES])
        rows.append([key, "empirical"] + [empirical.speedup(c) for c in CORES])
    print_once(
        request,
        format_table(
            ["benchmark", "predictor"] + [f"k={c}" for c in CORES],
            rows,
            title="Ablation: parametric vs nonparametric predictor",
            float_format="{:.1f}",
        ),
    )
    for key, (parametric, empirical) in results.items():
        # Both predictors agree on the ordering of core counts and stay within
        # a factor of ~3 of each other at 16 cores.
        assert 0.33 < parametric.speedup(16) / empirical.speedup(16) < 3.0, key


@pytest.mark.benchmark(group="ablations")
def test_ablation_algorithm_choice(benchmark, request, quick_config):
    """The model applies to a different Las Vegas algorithm (random restart)."""
    problem = quick_config.benchmarks()["Costas"].problem_factory()
    solver = RandomRestartSearch(problem)

    def run():
        batch = collect_batch(solver, 30, base_seed=17)
        values = batch.values("iterations")
        prediction = predict_speedup_empirical(values, CORES)
        simulated = simulate_multiwalk_speedups(
            batch, CORES, n_parallel_runs=300, rng=np.random.default_rng(2)
        )
        return batch, prediction, simulated

    batch, prediction, simulated = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[c, prediction.speedup(c), simulated.speedup(c)] for c in CORES]
    print_once(
        request,
        format_table(
            ["cores", "predicted", "simulated"],
            rows,
            title=f"Ablation: random-restart baseline on {batch.label}",
            float_format="{:.1f}",
        ),
    )
    assert batch.success_rate() > 0.9
    for c in CORES:
        assert 0.3 < prediction.speedup(c) / simulated.speedup(c) < 3.0

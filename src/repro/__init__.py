"""repro — Prediction of parallel speed-ups for Las Vegas algorithms.

This package is a from-scratch reproduction of

    C. Truchet, F. Richoux, P. Codognet,
    "Prediction of Parallel Speed-ups for Las Vegas Algorithms", ICPP 2013.

It provides four layers:

``repro.core``
    The paper's primary contribution: runtime-distribution models, the
    minimum-of-``n``-draws (first order statistic) transform describing an
    independent multi-walk execution, and speed-up prediction from either a
    fitted parametric distribution or raw empirical observations.

``repro.csp`` and ``repro.solvers``
    The substrate the paper evaluates on: a constraint-based local-search
    framework (error functions over permutation CSPs) with an Adaptive
    Search solver, plus additional Las Vegas algorithms (WalkSAT, randomized
    quicksort) used to demonstrate the generality of the model.

``repro.engine``
    The unified execution engine every layer launches runs through:
    pluggable serial/thread/process backends, deterministic seed streaming,
    first-finisher-wins cancellation, structured progress callbacks and an
    on-disk observation cache.  A given base seed yields bit-identical
    iteration counts on every backend.

``repro.multiwalk``
    The parallel-execution substrate: the batch container, the
    simulated independent multi-walk (minimum over blocks of independent
    runs) and a real first-finisher-wins multi-walk executor, all routed
    through ``repro.engine``.

``repro.experiments``
    The harness regenerating every table and figure of the paper's
    evaluation section.

Quickstart
----------
>>> import numpy as np
>>> from repro import ShiftedExponential, predict_speedup_curve
>>> rng = np.random.default_rng(0)
>>> observations = ShiftedExponential(x0=100.0, lam=1e-3).sample(rng, 500)
>>> result = predict_speedup_curve(observations, cores=[16, 64, 256])
>>> result.family
'shifted_exponential'
"""

from __future__ import annotations

from repro.core.distributions import (
    EmpiricalDistribution,
    GammaRuntime,
    LogNormalRuntime,
    ParetoRuntime,
    RuntimeDistribution,
    ShiftedExponential,
    TruncatedGaussian,
    UniformRuntime,
    WeibullRuntime,
    distribution_registry,
)
from repro.core.minimum import MinDistribution
from repro.core.prediction import (
    PredictionResult,
    predict_speedup_curve,
    predict_speedup_from_distribution,
)
from repro.core.speedup import SpeedupModel
from repro.core.fitting import FitResult, fit_distribution, select_best_fit
from repro.engine import collect_batch, run_race
from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.simulate import simulate_multiwalk_speedups

__version__ = "1.0.0"

__all__ = [
    "EmpiricalDistribution",
    "FitResult",
    "GammaRuntime",
    "LogNormalRuntime",
    "MinDistribution",
    "ParetoRuntime",
    "PredictionResult",
    "RuntimeDistribution",
    "RuntimeObservations",
    "ShiftedExponential",
    "SpeedupModel",
    "TruncatedGaussian",
    "UniformRuntime",
    "WeibullRuntime",
    "collect_batch",
    "distribution_registry",
    "fit_distribution",
    "predict_speedup_curve",
    "predict_speedup_from_distribution",
    "run_race",
    "select_best_fit",
    "simulate_multiwalk_speedups",
    "__version__",
]

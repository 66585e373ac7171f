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
    The parallel-execution substrate: the batch container and the
    simulated independent multi-walk (minimum over blocks of independent
    runs); real first-finisher-wins races are ``repro.engine.run_race``.

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
'shifted_gamma'
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Public name -> defining module.  Resolved on first attribute access
#: (PEP 562), so ``import repro`` stays cheap and a process-pool worker
#: that only unpickles a solver never imports SciPy or :mod:`repro.core`.
_EXPORTS = {
    "EmpiricalDistribution": "repro.core.distributions",
    "FitResult": "repro.core.fitting",
    "GammaRuntime": "repro.core.distributions",
    "LogNormalRuntime": "repro.core.distributions",
    "MinDistribution": "repro.core.minimum",
    "ParetoRuntime": "repro.core.distributions",
    "PredictionResult": "repro.core.prediction",
    "RuntimeDistribution": "repro.core.distributions",
    "RuntimeObservations": "repro.multiwalk.observations",
    "ShiftedExponential": "repro.core.distributions",
    "SpeedupModel": "repro.core.speedup",
    "TruncatedGaussian": "repro.core.distributions",
    "UniformRuntime": "repro.core.distributions",
    "WeibullRuntime": "repro.core.distributions",
    "collect_batch": "repro.engine",
    "fit_distribution": "repro.core.fitting",
    "predict_speedup_curve": "repro.core.prediction",
    "predict_speedup_from_distribution": "repro.core.prediction",
    "run_race": "repro.engine",
    "select_best_fit": "repro.core.fitting",
    "simulate_multiwalk_speedups": "repro.multiwalk.simulate",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""High-level speed-up prediction API (the paper's end-to-end pipeline).

:func:`predict_speedup_curve` performs the full Section 6 workflow in one
call: estimate the shift, fit (or auto-select) a parametric family, verify
the fit with the Kolmogorov–Smirnov test, and evaluate the predicted
multi-walk speed-up for the requested core counts.  A nonparametric variant
based on the empirical distribution of the observations is available for
comparison (and used by the ablation benchmarks).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.core.distributions.base import RuntimeDistribution
from repro.core.distributions.empirical import EmpiricalDistribution
from repro.core.fitting.selection import DEFAULT_CANDIDATES, FitResult, fit_distribution, select_best_fit
from repro.core.speedup import SpeedupCurve, SpeedupModel

__all__ = [
    "PredictionResult",
    "predict_speedup_curve",
    "predict_speedup_empirical",
    "predict_speedup_from_distribution",
]

#: Core counts reported throughout the paper's evaluation tables.
PAPER_CORE_COUNTS: tuple[int, ...] = (16, 32, 64, 128, 256)


@dataclasses.dataclass(frozen=True)
class PredictionResult:
    """Outcome of a speed-up prediction.

    Attributes
    ----------
    curve:
        Predicted speed-ups per requested core count.
    distribution:
        The runtime distribution used for the prediction (fitted parametric
        family or empirical distribution).
    family:
        Name of the distribution family (``"empirical"`` for the
        nonparametric predictor).
    fit:
        The :class:`FitResult` backing a parametric prediction, or ``None``
        for nonparametric / direct-distribution predictions.
    limit:
        Asymptotic speed-up as the number of cores tends to infinity.
    """

    curve: SpeedupCurve
    distribution: RuntimeDistribution
    family: str
    fit: FitResult | None
    limit: float

    @property
    def speedups(self) -> Mapping[int, float]:
        """Core count -> predicted speed-up."""
        return self.curve.as_dict()

    def speedup(self, n_cores: int) -> float:
        """Predicted speed-up for one of the requested core counts."""
        try:
            return self.curve.as_dict()[int(n_cores)]
        except KeyError:
            # Not one of the pre-computed points: evaluate on demand.
            return SpeedupModel(self.distribution).speedup(int(n_cores))

    def summary(self) -> str:
        """Multi-line human-readable report of the prediction."""
        lines = [f"family: {self.family}"]
        if self.fit is not None:
            lines.append(f"fit:    {self.fit.summary()}")
        lines.append(f"limit:  {self.limit:.4g}")
        lines.append("cores   predicted speed-up")
        for cores, speedup in self.curve:
            lines.append(f"{cores:>5d}   {speedup:10.2f}")
        return "\n".join(lines)


def predict_speedup_from_distribution(
    distribution: RuntimeDistribution,
    cores: Sequence[int] = PAPER_CORE_COUNTS,
) -> PredictionResult:
    """Predict speed-ups directly from a known runtime distribution."""
    model = SpeedupModel(distribution)
    curve = model.curve(cores)
    return PredictionResult(
        curve=curve,
        distribution=distribution,
        family=type(distribution).name,
        fit=None,
        limit=model.limit(),
    )


def predict_speedup_curve(
    observations: Sequence[float] | np.ndarray,
    cores: Sequence[int] = PAPER_CORE_COUNTS,
    *,
    family: str | None = None,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    shift_rule: str = "zero_if_negligible",
    shift: float | None = None,
) -> PredictionResult:
    """Fit observed sequential runtimes and predict multi-walk speed-ups.

    Parameters
    ----------
    observations:
        Sequential runtimes or iteration counts.
    cores:
        Core counts to evaluate (defaults to the paper's 16…256).
    family:
        Force a specific family; when ``None`` the best candidate according
        to the Kolmogorov–Smirnov p-value is selected automatically.
    candidates:
        Candidate families for automatic selection.
    shift_rule, shift:
        Shift estimation rule or explicit shift (see
        :mod:`repro.core.fitting.shift`).
    """
    if family is not None:
        fit = fit_distribution(observations, family, shift_rule=shift_rule, shift=shift)
    else:
        fit = select_best_fit(observations, candidates, shift_rule=shift_rule)
    result = predict_speedup_from_distribution(fit.distribution, cores)
    return dataclasses.replace(result, family=fit.family, fit=fit)


def predict_speedup_empirical(
    observations: Sequence[float] | np.ndarray,
    cores: Sequence[int] = PAPER_CORE_COUNTS,
) -> PredictionResult:
    """Nonparametric prediction from the empirical distribution of the sample.

    No family assumption: the expected multi-walk runtime is the exact
    expectation of the minimum of ``n`` draws with replacement from the
    observed sample (see
    :meth:`repro.core.distributions.empirical.EmpiricalDistribution.expected_minimum`).
    """
    return predict_speedup_from_distribution(EmpiricalDistribution(observations), cores)

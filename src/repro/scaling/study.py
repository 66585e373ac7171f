"""Instance-size scaling studies and extrapolated speed-up predictions.

Workflow (the paper's future-work proposal, Section 8):

1. solve several *small* instances of the same problem family many times
   sequentially;
2. check that one distribution family fits every size (the paper's
   preliminary observation for ALL-INTERVAL);
3. fit power laws describing how the shift ``x0`` and the mean excess
   ``E[Y] - x0`` grow with the instance size;
4. extrapolate those parameters to a larger, unsolved target size and apply
   the Section 3 model to the extrapolated distribution.

The study keeps the family's *shape* parameters (lognormal ``sigma``, gamma /
Weibull shape) fixed at their largest-studied-size values — precisely the
"shape is stable across sizes" hypothesis — and rescales location/scale from
the fitted laws.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.distributions import (
    GammaRuntime,
    LogNormalRuntime,
    ShiftedExponential,
    WeibullRuntime,
)
from repro.core.distributions.base import RuntimeDistribution
from repro.core.fitting import FitResult, fit_distribution, select_best_fit
from repro.core.speedup import SpeedupCurve, SpeedupModel
from repro.csp.permutation import PermutationProblem
from repro.engine.core import collect_batch
from repro.multiwalk.observations import RuntimeObservations
from repro.scaling.laws import PowerLawFit, fit_power_law
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.base import LasVegasAlgorithm

__all__ = ["ExtrapolatedPrediction", "InstanceScalingStudy", "SizeObservation"]


@dataclasses.dataclass(frozen=True)
class SizeObservation:
    """Sequential campaign and fitted distribution for one instance size."""

    size: int
    observations: RuntimeObservations
    fit: FitResult

    @property
    def mean_cost(self) -> float:
        return float(self.observations.values("iterations").mean())

    @property
    def shift(self) -> float:
        return float(self.fit.distribution.params().get("x0", 0.0))

    @property
    def mean_excess(self) -> float:
        return max(self.mean_cost - self.shift, np.finfo(float).tiny)


@dataclasses.dataclass(frozen=True)
class ExtrapolatedPrediction:
    """Speed-up prediction for a target size never solved directly."""

    target_size: int
    distribution: RuntimeDistribution
    family: str
    curve: SpeedupCurve
    limit: float
    shift_law: PowerLawFit
    mean_excess_law: PowerLawFit

    def speedup(self, n_cores: int) -> float:
        try:
            return self.curve.as_dict()[int(n_cores)]
        except KeyError:
            return SpeedupModel(self.distribution).speedup(int(n_cores))

    def summary(self) -> str:
        lines = [
            f"target size: {self.target_size}",
            f"family:      {self.family}",
            "shift law:   x0(size) ~ "
            f"{self.shift_law.coefficient:.4g} * size^{self.shift_law.exponent:.3f}"
            f"  (R2={self.shift_law.r_squared:.3f})",
            "mean excess: (E[Y]-x0)(size) ~ "
            f"{self.mean_excess_law.coefficient:.4g} * size^{self.mean_excess_law.exponent:.3f}"
            f"  (R2={self.mean_excess_law.r_squared:.3f})",
            f"limit:       {self.limit:.4g}",
            "cores   predicted speed-up",
        ]
        for cores, speedup in self.curve:
            lines.append(f"{cores:>5d}   {speedup:10.2f}")
        return "\n".join(lines)


def _rescale_distribution(
    fit: FitResult, new_shift: float, new_mean_excess: float
) -> RuntimeDistribution:
    """Rebuild a distribution of the fitted family with extrapolated location/scale.

    Shape parameters are preserved; the scale-like parameter is chosen so
    that the mean excess over the shift equals ``new_mean_excess``.
    """
    dist = fit.distribution
    new_shift = max(float(new_shift), 0.0)
    new_mean_excess = max(float(new_mean_excess), np.finfo(float).tiny)
    if isinstance(dist, ShiftedExponential):
        return ShiftedExponential(x0=new_shift, lam=1.0 / new_mean_excess)
    if isinstance(dist, LogNormalRuntime):
        sigma = dist.sigma
        mu = math.log(new_mean_excess) - 0.5 * sigma * sigma
        return LogNormalRuntime(mu=mu, sigma=sigma, x0=new_shift)
    if isinstance(dist, GammaRuntime):
        return GammaRuntime(shape=dist.shape, scale=new_mean_excess / dist.shape, x0=new_shift)
    if isinstance(dist, WeibullRuntime):
        scale = new_mean_excess / math.gamma(1.0 + 1.0 / dist.shape)
        return WeibullRuntime(shape=dist.shape, scale=scale, x0=new_shift)
    raise ValueError(
        f"instance-size extrapolation is not implemented for family {fit.family!r}"
    )


class InstanceScalingStudy:
    """Learn parameter-scaling laws on small instances, predict larger ones.

    Parameters
    ----------
    problem_factory:
        Callable mapping an instance size to a problem (e.g.
        ``AllIntervalProblem``).
    solver_factory:
        Callable mapping a problem to a Las Vegas algorithm; defaults to
        Adaptive Search with the given iteration budget.
    family:
        Distribution family to fit at every size; ``None`` selects the best
        family automatically at each size (and
        :meth:`family_is_stable` reports whether the same one wins
        everywhere).
    shift_rule:
        Shift-estimation rule passed to the fitting layer.
    n_runs:
        Sequential runs per size.
    max_iterations:
        Per-run iteration budget.
    base_seed:
        Root seed; each size derives its own stream.
    """

    def __init__(
        self,
        problem_factory: Callable[[int], PermutationProblem],
        *,
        solver_factory: Callable[[PermutationProblem], LasVegasAlgorithm] | None = None,
        family: str | None = "shifted_exponential",
        shift_rule: str = "zero_if_negligible",
        n_runs: int = 60,
        max_iterations: int = 200_000,
        base_seed: int = 0,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        if n_runs < 2:
            raise ValueError("a scaling study needs at least two runs per size")
        self.problem_factory = problem_factory
        self.solver_factory = solver_factory or (
            lambda problem: AdaptiveSearch(
                problem, AdaptiveSearchConfig(max_iterations=max_iterations)
            )
        )
        self.family = family
        self.shift_rule = shift_rule
        self.n_runs = int(n_runs)
        self.max_iterations = int(max_iterations)
        self.base_seed = int(base_seed)
        # Campaigns route through the execution engine; results are
        # backend-invariant, so this only affects wall-clock time.
        self.backend = backend
        self.workers = workers
        self.size_observations: list[SizeObservation] = []

    # ------------------------------------------------------------------
    def run(self, sizes: Sequence[int]) -> list[SizeObservation]:
        """Collect campaigns and fits for every requested instance size."""
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2:
            raise ValueError("a scaling study needs at least two instance sizes")
        if len(set(sizes)) != len(sizes):
            raise ValueError("instance sizes must be distinct")
        results: list[SizeObservation] = []
        for index, size in enumerate(sorted(sizes)):
            problem = self.problem_factory(size)
            solver = self.solver_factory(problem)
            batch = collect_batch(
                solver, self.n_runs, base_seed=self.base_seed + 1000 * index,
                label=f"{problem.describe()}",
                backend=self.backend, workers=self.workers,
            )
            values = batch.values("iterations")
            if self.family is not None:
                fit = fit_distribution(values, self.family, shift_rule=self.shift_rule)
            else:
                fit = select_best_fit(values, shift_rule=self.shift_rule)
            results.append(SizeObservation(size=size, observations=batch, fit=fit))
        self.size_observations = results
        return results

    def _require_results(self) -> list[SizeObservation]:
        if not self.size_observations:
            raise RuntimeError("call run(sizes) before querying the study")
        return self.size_observations

    # ------------------------------------------------------------------
    def family_is_stable(self) -> bool:
        """Whether every studied size fits (or selects) the same family."""
        results = self._require_results()
        return len({obs.fit.family for obs in results}) == 1

    def accepted_everywhere(self, significance: float = 0.05) -> bool:
        """Whether the KS test accepts the fit at every studied size."""
        return all(obs.fit.accepted(significance) for obs in self._require_results())

    def parameter_table(self) -> Mapping[int, Mapping[str, float]]:
        """Fitted parameters per size (for reports and tests)."""
        return {obs.size: dict(obs.fit.distribution.params()) for obs in self._require_results()}

    def scaling_laws(self) -> tuple[PowerLawFit, PowerLawFit]:
        """Power laws for the shift and the mean excess as functions of the size."""
        results = self._require_results()
        sizes = [obs.size for obs in results]
        shift_law = fit_power_law(sizes, [obs.shift for obs in results])
        excess_law = fit_power_law(sizes, [obs.mean_excess for obs in results])
        return shift_law, excess_law

    # ------------------------------------------------------------------
    def extrapolate(
        self, target_size: int, cores: Sequence[int] = (16, 32, 64, 128, 256)
    ) -> ExtrapolatedPrediction:
        """Predict the speed-up curve of a larger instance without solving it."""
        results = self._require_results()
        target_size = int(target_size)
        if target_size <= max(obs.size for obs in results):
            raise ValueError(
                f"target size {target_size} is not larger than the studied sizes; "
                "extrapolation is only meaningful upward"
            )
        shift_law, excess_law = self.scaling_laws()
        reference_fit = results[-1].fit  # largest studied size carries the shape
        distribution = _rescale_distribution(
            reference_fit,
            new_shift=shift_law.predict(target_size),
            new_mean_excess=excess_law.predict(target_size),
        )
        model = SpeedupModel(distribution)
        curve = model.curve(cores)
        return ExtrapolatedPrediction(
            target_size=target_size,
            distribution=distribution,
            family=reference_fit.family,
            curve=curve,
            limit=model.limit(),
            shift_law=shift_law,
            mean_excess_law=excess_law,
        )

    def validate(
        self,
        target_size: int,
        cores: Sequence[int] = (16, 64, 256),
        *,
        n_runs: int | None = None,
    ) -> Mapping[str, Mapping[int, float]]:
        """Compare the extrapolated prediction against a direct campaign.

        Runs the solver at the target size (``n_runs`` defaults to the
        study's per-size run count), fits the same family directly, and
        returns the three speed-up curves (extrapolated / directly fitted /
        simulated multi-walk) keyed by core count.  This is the experiment
        the paper proposes as future work.
        """
        from repro.multiwalk.simulate import simulate_multiwalk_speedups

        extrapolated = self.extrapolate(target_size, cores)
        problem = self.problem_factory(int(target_size))
        solver = self.solver_factory(problem)
        batch = collect_batch(
            solver, n_runs or self.n_runs, base_seed=self.base_seed + 999_983,
            label=problem.describe(),
            backend=self.backend, workers=self.workers,
        )
        values = batch.values("iterations")
        direct_fit = fit_distribution(
            values, extrapolated.family, shift_rule=self.shift_rule
        )
        direct_model = SpeedupModel(direct_fit.distribution)
        simulated = simulate_multiwalk_speedups(
            batch, cores, rng=np.random.default_rng(self.base_seed + 7)
        )
        return {
            "extrapolated": {int(c): extrapolated.speedup(c) for c in cores},
            "direct_fit": {int(c): direct_model.speedup(int(c)) for c in cores},
            "simulated": {int(c): simulated.speedup(int(c)) for c in cores},
        }

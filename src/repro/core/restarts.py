"""Restart strategies for Las Vegas algorithms.

Restarts are the *sequential* counterpart of the paper's multi-walk
parallelism: instead of running ``n`` walks side by side, a single walk is
killed and restarted after a cutoff.  The classical results (Luby et al.;
Gomes & Selman's heavy-tail analysis, both in the lineage of work the paper
cites) connect directly to the runtime distribution machinery of this
library, so the module provides:

* the expected runtime of a fixed-cutoff restart strategy,
  ``E[T(c)] = (c - Integral_0^c F_Y(t) dt) / F_Y(c)``;
* numerical optimisation of that cutoff over a distribution;
* the Luby universal restart sequence;
* a comparison helper answering the practical question "restart, parallelise
  or both?" for a given runtime distribution and core count.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.distributions.base import RuntimeDistribution
from repro.core.speedup import SpeedupModel
from repro.luby import luby_sequence

__all__ = [
    "RestartAnalysis",
    "expected_runtime_with_cutoff",
    "luby_sequence",
    "optimal_cutoff",
    "restart_vs_multiwalk",
]


def expected_runtime_with_cutoff(dist: RuntimeDistribution, cutoff: float) -> float:
    """Expected total runtime of restart-at-``cutoff`` until success.

    Each attempt succeeds within the cutoff with probability ``q = F_Y(c)``
    and, conditionally on success, costs ``E[Y | Y <= c]``; a failed attempt
    costs the full cutoff.  Summing the geometric series gives the classical
    formula ``E[T(c)] = (c * (1 - q) + Integral_0^c (F_Y(c') dc' ... )``,
    equivalently ``(c - Integral_0^c F_Y(t) dt) / q``.
    """
    from scipy import integrate

    if cutoff <= 0.0 or not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    q = float(dist.cdf(cutoff))
    if q <= 0.0:
        return math.inf
    low, _ = dist.support()
    lower = min(low, cutoff)
    integral, _err = integrate.quad(lambda t: float(dist.cdf(t)), lower, cutoff, limit=200)
    return (cutoff - integral) / q


def optimal_cutoff(
    dist: RuntimeDistribution,
    *,
    lower_quantile: float = 1e-4,
    upper_quantile: float = 1.0 - 1e-6,
) -> tuple[float, float]:
    """Cutoff minimising the expected restart runtime, and that optimal value.

    The search is a bounded scalar minimisation of
    :func:`expected_runtime_with_cutoff` over ``[Q(lower), Q(upper)]`` on a
    log scale (restart cutoffs span orders of magnitude).  For light-tailed
    distributions the optimum is the upper bound (restarts do not help); for
    heavy-tailed ones it is an interior point far below the mean.
    """
    from scipy import optimize

    low = max(dist.quantile(lower_quantile), np.finfo(float).tiny)
    high = dist.quantile(upper_quantile)
    if not math.isfinite(high) or high <= low:
        raise ValueError("could not bracket the cutoff search")

    def objective(log_cutoff: float) -> float:
        return expected_runtime_with_cutoff(dist, math.exp(log_cutoff))

    result = optimize.minimize_scalar(
        objective, bounds=(math.log(low), math.log(high)), method="bounded",
        options={"xatol": 1e-6},
    )
    cutoff = float(math.exp(result.x))
    value = float(result.fun)
    # The boundary (never restart) may beat the interior optimum; report whichever wins.
    no_restart = expected_runtime_with_cutoff(dist, high)
    if no_restart < value:
        return high, no_restart
    return cutoff, value


@dataclasses.dataclass(frozen=True)
class RestartAnalysis:
    """Outcome of the restart-vs-multiwalk comparison for one distribution."""

    mean_runtime: float
    optimal_cutoff: float
    restart_runtime: float
    multiwalk_runtime: float
    combined_runtime: float
    n_cores: int

    @property
    def restart_gain(self) -> float:
        """Sequential gain from restarting: ``E[Y] / E[T(c*)]``."""
        return self.mean_runtime / self.restart_runtime

    @property
    def multiwalk_gain(self) -> float:
        """Parallel gain from the plain multi-walk: ``G_n``."""
        return self.mean_runtime / self.multiwalk_runtime

    @property
    def combined_gain(self) -> float:
        """Gain from restarting *inside* every walk of the multi-walk."""
        return self.mean_runtime / self.combined_runtime

    def best_strategy(self) -> str:
        """Name of the strategy with the smallest expected runtime."""
        options = {
            "restart": self.restart_runtime,
            "multiwalk": self.multiwalk_runtime,
            "restart+multiwalk": self.combined_runtime,
        }
        return min(options, key=options.get)


def restart_vs_multiwalk(dist: RuntimeDistribution, n_cores: int) -> RestartAnalysis:
    """Compare sequential restarts, a plain multi-walk, and their combination.

    The combination models every walk as an independent restart-at-optimal-
    cutoff process: the per-walk runtime is (approximately) exponential with
    mean ``E[T(c*)]``, so the ``n``-walk minimum has mean ``E[T(c*)] / n`` —
    the idealised upper bound the paper's Section 3.3 attributes to
    exponential behaviour.
    """
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    mean = dist.mean()
    cutoff, restart_runtime = optimal_cutoff(dist)
    model = SpeedupModel(dist)
    multiwalk_runtime = model.expected_parallel(n_cores)
    combined_runtime = restart_runtime / n_cores
    return RestartAnalysis(
        mean_runtime=mean,
        optimal_cutoff=cutoff,
        restart_runtime=restart_runtime,
        multiwalk_runtime=multiwalk_runtime,
        combined_runtime=combined_runtime,
        n_cores=int(n_cores),
    )

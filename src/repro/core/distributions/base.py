"""Abstract base class for runtime distributions.

A *runtime distribution* models the computation cost (wall-clock seconds or,
preferably, iteration count — the paper argues iterations are unbiased and
machine-independent) of one sequential run of a Las Vegas algorithm on a
fixed problem instance.

Every concrete family implements the density, cumulative distribution and
mean; the base class derives the survival function, variance, quantiles,
sampling helpers and — most importantly for the paper — the
minimum-of-``n``-draws transform :meth:`RuntimeDistribution.min_of` and the
expected parallel runtime :meth:`RuntimeDistribution.expected_minimum`.
"""

from __future__ import annotations

import abc
import math
from typing import Any, ClassVar, Mapping

import numpy as np

__all__ = ["RuntimeDistribution"]

_QUANTILE_TOL = 1e-12


class RuntimeDistribution(abc.ABC):
    """Continuous probability distribution of a Las Vegas runtime.

    Concrete subclasses must implement :meth:`pdf`, :meth:`cdf`,
    :meth:`mean`, :meth:`sample` and :meth:`params`, and should override
    :meth:`quantile`, :meth:`expected_minimum` and :meth:`variance` whenever
    a closed form exists (the base-class implementations fall back to
    numerical root finding / quadrature).

    The distribution is supported on ``[support()[0], support()[1]]``; for
    the paper's shifted families the lower bound is the shift ``x0``.
    """

    #: Registry name of the family (e.g. ``"shifted_exponential"``).
    name: ClassVar[str] = "abstract"

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Probability density evaluated at ``t`` (vectorised)."""

    @abc.abstractmethod
    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Cumulative distribution ``P[Y <= t]`` evaluated at ``t``."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expectation ``E[Y]``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        """Draw ``size`` i.i.d. samples using the generator ``rng``."""

    @abc.abstractmethod
    def params(self) -> Mapping[str, float]:
        """Dictionary of the family's parameters (including the shift)."""

    # ------------------------------------------------------------------
    # Support and derived quantities
    # ------------------------------------------------------------------
    def support(self) -> tuple[float, float]:
        """Return the ``(lower, upper)`` bounds of the support.

        Defaults to ``[0, +inf)``; shifted families override the lower
        bound with their shift ``x0``.
        """
        return (0.0, math.inf)

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Survival function ``P[Y > t] = 1 - F_Y(t)``."""
        return 1.0 - np.asarray(self.cdf(t), dtype=float)

    def variance(self) -> float:
        """Variance ``Var[Y]``; numerical fallback via the second moment."""
        from repro.core.order_stats import raw_moment

        second = raw_moment(self, order=2)
        mu = self.mean()
        return max(second - mu * mu, 0.0)

    def std(self) -> float:
        """Standard deviation of the runtime."""
        return math.sqrt(self.variance())

    def median(self) -> float:
        """Median runtime, i.e. the 0.5 quantile."""
        return self.quantile(0.5)

    def quantile(self, q: float) -> float:
        """Inverse CDF at probability ``q`` (numerical bracketing fallback)."""
        from scipy import optimize

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {q}")
        low, high = self.support()
        if q == 0.0:
            return low
        if q == 1.0:
            return high
        # Find a finite bracket [lo, hi] with cdf(lo) <= q <= cdf(hi).
        lo = low if math.isfinite(low) else 0.0
        hi = hi0 = max(lo + 1.0, 2.0 * abs(lo) + 1.0)
        if math.isfinite(high):
            hi = high
        else:
            # Geometric expansion of the upper bracket.
            for _ in range(200):
                if self.cdf(hi) >= q:
                    break
                hi = lo + 2.0 * (hi - lo)
            else:  # pragma: no cover - pathological distribution
                raise RuntimeError(f"could not bracket quantile {q} starting from {hi0}")
        func = lambda t: float(self.cdf(t)) - q
        f_lo = func(lo)
        if abs(f_lo) <= _QUANTILE_TOL:
            return lo
        return float(optimize.brentq(func, lo, hi, xtol=1e-12, rtol=1e-12))

    # ------------------------------------------------------------------
    # Multi-walk (order statistic) interface
    # ------------------------------------------------------------------
    def min_of(self, n_cores: int) -> "Any":
        """Distribution of ``Z(n) = min(X_1, ..., X_n)`` with i.i.d. ``X_i ~ Y``.

        This is the runtime distribution of an independent multi-walk
        execution on ``n_cores`` cores (Definition 2 in the paper):
        ``F_Z(t) = 1 - (1 - F_Y(t))^n``.
        """
        from repro.core.minimum import MinDistribution

        return MinDistribution(self, n_cores)

    def expected_minimum(self, n_cores: int) -> float:
        """Expected parallel runtime ``E[Z(n)]`` on ``n_cores`` cores.

        Base-class implementation integrates the survival function of the
        minimum; families with closed forms (shifted exponential, uniform)
        override this.
        """
        from repro.core.order_stats import expected_minimum

        return expected_minimum(self, n_cores)

    def speedup(self, n_cores: int) -> float:
        """Predicted multi-walk speed-up ``G_n = E[Y] / E[Z(n)]``."""
        expected = self.expected_minimum(n_cores)
        if expected <= 0.0:
            raise ZeroDivisionError(
                f"expected minimum runtime is {expected!r}; speed-up is undefined"
            )
        return self.mean() / expected

    def speedup_limit(self) -> float:
        """Limit of the speed-up as the number of cores tends to infinity.

        Generic result: ``E[Z(n)] -> essential infimum of Y`` as ``n`` grows,
        hence the limit is ``E[Y] / inf(support)`` (infinite when the support
        reaches zero).  Families override this when a cleaner closed form
        exists.
        """
        low, _ = self.support()
        if low <= 0.0:
            return math.inf
        return self.mean() / low

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def log_pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Natural logarithm of the density (numerical fallback)."""
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.pdf(t), dtype=float))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v:.6g}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuntimeDistribution):
            return NotImplemented
        if type(self) is not type(other):
            return False
        mine, theirs = self.params(), other.params()
        return mine.keys() == theirs.keys() and all(
            math.isclose(mine[k], theirs[k], rel_tol=1e-12, abs_tol=1e-12) for k in mine
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.params().items()))))

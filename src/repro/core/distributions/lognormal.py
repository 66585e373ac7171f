"""Shifted lognormal runtime distribution (paper, Section 3.4).

``Y = x0 + exp(N(mu, sigma^2))``.  The paper uses this family for the
MAGIC-SQUARE 200 iteration counts (``mu = 12.0275``, ``sigma = 1.3398``,
shifted by the observed minimum ``x0 = 6210``).  There is no closed form for
``E[Z(n)]``; the paper (following Nadarajah 2008) evaluates the first moment
of the first order statistic with a single numerical integration, which is
what :meth:`LogNormalRuntime.expected_minimum` inherits from
:mod:`repro.core.order_stats`.
"""

from __future__ import annotations

import math
from typing import ClassVar, Mapping

import numpy as np

from repro.core.distributions.base import RuntimeDistribution

__all__ = ["LogNormalRuntime"]

_SQRT2 = math.sqrt(2.0)


class LogNormalRuntime(RuntimeDistribution):
    """Lognormal distribution shifted to start at ``x0``.

    Parameters
    ----------
    mu:
        Mean of the underlying gaussian (log-scale location).
    sigma:
        Standard deviation of the underlying gaussian.  Must be positive.
    x0:
        Shift (essential minimum runtime).  Defaults to 0 (plain lognormal).
    """

    name: ClassVar[str] = "shifted_lognormal"

    def __init__(self, mu: float, sigma: float, x0: float = 0.0) -> None:
        if sigma <= 0.0 or not math.isfinite(sigma):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        if x0 < 0.0 or not math.isfinite(x0):
            raise ValueError(f"shift x0 must be non-negative and finite, got {x0}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.x0 = float(x0)

    def params(self) -> Mapping[str, float]:
        return {"mu": self.mu, "sigma": self.sigma, "x0": self.x0}

    def support(self) -> tuple[float, float]:
        return (self.x0, math.inf)

    # ------------------------------------------------------------------
    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        shifted = t - self.x0
        safe = np.where(shifted > 0.0, shifted, 1.0)
        log_safe = np.log(safe)
        dens = np.exp(-((log_safe - self.mu) ** 2) / (2.0 * self.sigma**2)) / (
            safe * self.sigma * math.sqrt(2.0 * math.pi)
        )
        out = np.where(shifted > 0.0, dens, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        from scipy import special

        t = np.asarray(t, dtype=float)
        shifted = t - self.x0
        safe = np.where(shifted > 0.0, shifted, 1.0)
        # F(t) = 1/2 erfc((mu - log(t - x0)) / (sqrt(2) sigma))   (paper, Sec. 3.4)
        vals = 0.5 * special.erfc((self.mu - np.log(safe)) / (_SQRT2 * self.sigma))
        out = np.where(shifted > 0.0, vals, 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.x0 + math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def median(self) -> float:
        return self.x0 + math.exp(self.mu)

    def quantile(self, q: float) -> float:
        from scipy import special

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {q}")
        if q == 0.0:
            return self.x0
        if q == 1.0:
            return math.inf
        z = special.ndtri(q)
        return self.x0 + math.exp(self.mu + self.sigma * z)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        return self.x0 + rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)

    def log_pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        shifted = t - self.x0
        safe = np.where(shifted > 0.0, shifted, 1.0)
        log_safe = np.log(safe)
        vals = (
            -((log_safe - self.mu) ** 2) / (2.0 * self.sigma**2)
            - log_safe
            - math.log(self.sigma * math.sqrt(2.0 * math.pi))
        )
        out = np.where(shifted > 0.0, vals, -np.inf)
        return out if out.ndim else float(out)

    def speedup_limit(self) -> float:
        """Limit of the speed-up when the number of cores tends to infinity.

        ``E[Z(n)] -> x0``; the limit is ``E[Y] / x0`` for ``x0 > 0`` and
        infinite otherwise.
        """
        if self.x0 == 0.0:
            return math.inf
        return self.mean() / self.x0

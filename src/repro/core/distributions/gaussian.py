"""Truncated (non-negative) gaussian runtime distribution.

Figure 1 of the paper illustrates the minimum-of-``n`` transform on a
gaussian "cut on R- and renormalised" — i.e. a normal distribution truncated
to the non-negative axis (more generally to ``[lower, inf)``).  The authors
also ran the Kolmogorov–Smirnov test against a gaussian for the benchmark
data (and rejected it); having the family available lets the reproduction
exercise that negative result too.
"""

from __future__ import annotations

import math
from typing import ClassVar, Mapping

import numpy as np

from repro.core.distributions.base import RuntimeDistribution

__all__ = ["TruncatedGaussian"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _std_norm_cdf(z: np.ndarray | float) -> np.ndarray | float:
    from scipy import special

    return 0.5 * special.erfc(-np.asarray(z, dtype=float) / _SQRT2)


def _std_norm_sf(z: np.ndarray | float) -> np.ndarray | float:
    """Survival function 1 - Phi(z), computed without cancellation."""
    from scipy import special

    return 0.5 * special.erfc(np.asarray(z, dtype=float) / _SQRT2)


def _std_norm_pdf(z: np.ndarray | float) -> np.ndarray | float:
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


class TruncatedGaussian(RuntimeDistribution):
    """Normal distribution truncated to ``[lower, +inf)`` and renormalised.

    Parameters
    ----------
    mu:
        Location of the untruncated normal.
    sigma:
        Scale of the untruncated normal.  Must be positive.
    lower:
        Truncation point; probability mass below it is removed and the
        remainder renormalised.  Defaults to 0 (runtimes are non-negative).
    """

    name: ClassVar[str] = "truncated_gaussian"

    def __init__(self, mu: float, sigma: float, lower: float = 0.0) -> None:
        if sigma <= 0.0 or not math.isfinite(sigma):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        if not math.isfinite(lower):
            raise ValueError(f"lower truncation must be finite, got {lower}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.lower = float(lower)
        alpha = (self.lower - self.mu) / self.sigma
        self._alpha = alpha
        self._tail_mass = float(_std_norm_sf(alpha))
        if self._tail_mass <= 0.0:
            raise ValueError(
                "truncation removes essentially all probability mass "
                f"(mu={mu}, sigma={sigma}, lower={lower})"
            )

    def params(self) -> Mapping[str, float]:
        return {"mu": self.mu, "sigma": self.sigma, "lower": self.lower}

    def support(self) -> tuple[float, float]:
        return (self.lower, math.inf)

    # ------------------------------------------------------------------
    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        z = (t - self.mu) / self.sigma
        dens = _std_norm_pdf(z) / (self.sigma * self._tail_mass)
        out = np.where(t < self.lower, 0.0, dens)
        return out if out.ndim else float(out)

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        z = (t - self.mu) / self.sigma
        # 1 - sf(z)/sf(alpha) avoids the catastrophic cancellation of
        # (Phi(z) - Phi(alpha)) / (1 - Phi(alpha)) under extreme truncation.
        vals = 1.0 - _std_norm_sf(z) / self._tail_mass
        out = np.clip(np.where(t < self.lower, 0.0, vals), 0.0, 1.0)
        return out if out.ndim else float(out)

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        z = (t - self.mu) / self.sigma
        vals = _std_norm_sf(z) / self._tail_mass
        out = np.clip(np.where(t < self.lower, 1.0, vals), 0.0, 1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        # Standard truncated-normal mean: mu + sigma * phi(alpha) / (1 - Phi(alpha)).
        hazard = float(_std_norm_pdf(self._alpha)) / self._tail_mass
        return self.mu + self.sigma * hazard

    def variance(self) -> float:
        hazard = float(_std_norm_pdf(self._alpha)) / self._tail_mass
        return self.sigma**2 * (1.0 + self._alpha * hazard - hazard * hazard)

    def quantile(self, q: float) -> float:
        from scipy import special

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {q}")
        if q == 0.0:
            return self.lower
        if q == 1.0:
            return math.inf
        # Solve sf(t) = 1 - q, i.e. 0.5 * erfc(z / sqrt(2)) = (1 - q) * tail_mass;
        # erfcinv keeps full precision even under extreme truncation.
        target = (1.0 - q) * self._tail_mass
        z = _SQRT2 * float(special.erfcinv(2.0 * target))
        return self.mu + self.sigma * z

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        from scipy import special

        # Inverse-CDF sampling keeps the draw count deterministic, which
        # matters for reproducible experiment seeds (rejection sampling
        # would consume a data-dependent number of uniforms).
        u = rng.uniform(size=size)
        target = (1.0 - np.asarray(u)) * self._tail_mass
        z = _SQRT2 * special.erfcinv(2.0 * target)
        out = self.mu + self.sigma * z
        return out if np.ndim(out) else float(out)

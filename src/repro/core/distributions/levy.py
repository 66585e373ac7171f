"""Lévy (one-sided stable, index 1/2) runtime distribution.

The paper reports having run the Kolmogorov–Smirnov test against a Lévy
distribution for the benchmark data (and rejected it); including the family
lets the reproduction exercise that negative result and gives the library a
genuinely pathological case: the Lévy distribution has an *infinite mean*,
so a single-walk expectation does not even exist, yet the minimum of ``n``
draws has a finite mean for ``n >= 2`` — the extreme end of the
"parallelism rescues heavy tails" spectrum.

Parameterisation: location (shift) ``x0 >= 0`` and scale ``c > 0``;

``pdf(t) = sqrt(c / (2 pi)) * exp(-c / (2 (t - x0))) / (t - x0)^{3/2}``
``cdf(t) = erfc( sqrt( c / (2 (t - x0)) ) )``
"""

from __future__ import annotations

import math
from typing import ClassVar, Mapping

import numpy as np

from repro.core.distributions.base import RuntimeDistribution

__all__ = ["LevyRuntime"]


class LevyRuntime(RuntimeDistribution):
    """Lévy distribution with shift ``x0`` and scale ``c``."""

    name: ClassVar[str] = "levy"

    def __init__(self, scale: float, x0: float = 0.0) -> None:
        if scale <= 0.0 or not math.isfinite(scale):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if x0 < 0.0 or not math.isfinite(x0):
            raise ValueError(f"shift x0 must be non-negative and finite, got {x0}")
        self.scale = float(scale)
        self.x0 = float(x0)

    def params(self) -> Mapping[str, float]:
        return {"scale": self.scale, "x0": self.x0}

    def support(self) -> tuple[float, float]:
        return (self.x0, math.inf)

    # ------------------------------------------------------------------
    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        shifted = t - self.x0
        safe = np.where(shifted > 0.0, shifted, 1.0)
        dens = (
            math.sqrt(self.scale / (2.0 * math.pi))
            * np.exp(-self.scale / (2.0 * safe))
            / safe**1.5
        )
        out = np.where(shifted > 0.0, dens, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        from scipy import special

        t = np.asarray(t, dtype=float)
        shifted = t - self.x0
        safe = np.where(shifted > 0.0, shifted, 1.0)
        vals = special.erfc(np.sqrt(self.scale / (2.0 * safe)))
        out = np.where(shifted > 0.0, vals, 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """The Lévy distribution has no finite mean."""
        return math.inf

    def variance(self) -> float:
        return math.inf

    def median(self) -> float:
        from scipy import special

        # erfc(sqrt(c / 2m)) = 1/2  =>  m = c / (2 * erfcinv(1/2)^2)
        return self.x0 + self.scale / (2.0 * float(special.erfcinv(0.5)) ** 2)

    def quantile(self, q: float) -> float:
        from scipy import special

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {q}")
        if q == 0.0:
            return self.x0
        if q == 1.0:
            return math.inf
        z = float(special.erfcinv(q))
        return self.x0 + self.scale / (2.0 * z * z)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        # If U ~ N(0, 1) then c / U^2 is Lévy(c) — the classical construction.
        normals = rng.standard_normal(size)
        out = self.x0 + self.scale / np.square(normals)
        return out if np.ndim(out) else float(out)

    # ------------------------------------------------------------------
    def expected_minimum(self, n_cores: int) -> float:
        """``E[Z(n)]`` — finite for ``n >= 2`` even though ``E[Y]`` is not.

        The survival function of the minimum decays like ``t^(-n/2)``, so the
        integral converges as soon as ``n >= 3``; for ``n = 2`` it is only
        logarithmically divergent-free (it converges, barely), and for
        ``n = 1`` it is infinite.  Evaluated by the generic quadrature on the
        quantile form, which handles the heavy tail.
        """
        if n_cores < 1:
            raise ValueError(f"number of cores must be >= 1, got {n_cores}")
        if n_cores == 1:
            return math.inf
        from repro.core.order_stats import expected_minimum_quantile_form

        return expected_minimum_quantile_form(self, n_cores)

    def speedup(self, n_cores: int) -> float:
        """Speed-up relative to an infinite sequential expectation is infinite."""
        if n_cores == 1:
            return 1.0
        return math.inf

    def speedup_limit(self) -> float:
        return math.inf

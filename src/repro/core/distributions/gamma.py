"""Shifted gamma runtime distribution.

The paper's conclusion lists the gamma family among those whose order
statistics admit explicit moment formulas (Nadarajah 2008) and therefore fit
the prediction framework.  The gamma generalises the exponential (shape
``k = 1``); local-search runtimes with a mild "warm-up" phase often look
gamma rather than exponential, so it is a natural candidate for the
automatic family selector.
"""

from __future__ import annotations

import math
from typing import Any, ClassVar, Mapping

import numpy as np

from repro.core.distributions.base import RuntimeDistribution

__all__ = ["GammaRuntime"]


class GammaRuntime(RuntimeDistribution):
    """Gamma distribution with shape ``k``, scale ``theta`` and shift ``x0``.

    Parameters
    ----------
    shape:
        Shape parameter ``k > 0``.
    scale:
        Scale parameter ``theta > 0``.
    x0:
        Shift (essential minimum runtime).  Defaults to 0.
    """

    name: ClassVar[str] = "shifted_gamma"

    def __init__(self, shape: float, scale: float, x0: float = 0.0) -> None:
        if shape <= 0.0 or not math.isfinite(shape):
            raise ValueError(f"shape must be positive and finite, got {shape}")
        if scale <= 0.0 or not math.isfinite(scale):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if x0 < 0.0 or not math.isfinite(x0):
            raise ValueError(f"shift x0 must be non-negative and finite, got {x0}")
        self.shape = float(shape)
        self.scale = float(scale)
        self.x0 = float(x0)

    def params(self) -> Mapping[str, float]:
        return {"shape": self.shape, "scale": self.scale, "x0": self.x0}

    def support(self) -> tuple[float, float]:
        return (self.x0, math.inf)

    # ------------------------------------------------------------------
    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        from scipy import special

        t = np.asarray(t, dtype=float)
        shifted = t - self.x0
        safe = np.where(shifted > 0.0, shifted, 1.0)
        log_dens = (
            (self.shape - 1.0) * np.log(safe)
            - safe / self.scale
            - special.gammaln(self.shape)
            - self.shape * math.log(self.scale)
        )
        out = np.where(shifted > 0.0, np.exp(log_dens), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        from scipy import special

        t = np.asarray(t, dtype=float)
        shifted = np.clip(t - self.x0, 0.0, None)
        out = special.gammainc(self.shape, shifted / self.scale)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.x0 + self.shape * self.scale

    def variance(self) -> float:
        return self.shape * self.scale**2

    def quantile(self, q: float) -> float:
        from scipy import special

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {q}")
        if q == 0.0:
            return self.x0
        if q == 1.0:
            return math.inf
        return self.x0 + self.scale * float(special.gammaincinv(self.shape, q))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        return self.x0 + rng.gamma(shape=self.shape, scale=self.scale, size=size)

    def to_scipy(self) -> Any:
        """Frozen scipy distribution (useful for cross-checks in tests)."""
        from scipy import stats

        return stats.gamma(a=self.shape, scale=self.scale, loc=self.x0)

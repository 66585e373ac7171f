"""Parametric and empirical runtime-distribution families.

The paper models the sequential runtime (or iteration count) of a Las Vegas
algorithm as a continuous random variable ``Y``.  Every family here exposes
the same :class:`~repro.core.distributions.base.RuntimeDistribution`
interface: density, cumulative distribution, survival function, mean,
quantile, sampling and the minimum-of-``n`` transform used to model an
independent multi-walk execution.

Families used directly by the paper:

* :class:`ShiftedExponential` — Section 3.3, fits ALL-INTERVAL and COSTAS.
* :class:`LogNormalRuntime` (shifted lognormal) — Section 3.4, fits
  MAGIC-SQUARE.
* :class:`TruncatedGaussian` — Figure 1's illustrative example (also one of
  the families the authors tested and rejected).

Additional families (gamma, Weibull, Pareto, uniform) are provided because
the paper's conclusion points at them as candidates with known order
statistics, and because the automatic family selector needs a non-trivial
candidate set.
"""

from repro.core.distributions.base import RuntimeDistribution
from repro.core.distributions.empirical import EmpiricalDistribution
from repro.core.distributions.exponential import ShiftedExponential
from repro.core.distributions.gamma import GammaRuntime
from repro.core.distributions.gaussian import TruncatedGaussian
from repro.core.distributions.levy import LevyRuntime
from repro.core.distributions.loglogistic import LogLogisticRuntime
from repro.core.distributions.lognormal import LogNormalRuntime
from repro.core.distributions.pareto import ParetoRuntime
from repro.core.distributions.uniform import UniformRuntime
from repro.core.distributions.weibull import WeibullRuntime

__all__ = [
    "EmpiricalDistribution",
    "GammaRuntime",
    "LevyRuntime",
    "LogLogisticRuntime",
    "LogNormalRuntime",
    "ParetoRuntime",
    "RuntimeDistribution",
    "ShiftedExponential",
    "TruncatedGaussian",
    "UniformRuntime",
    "WeibullRuntime",
]

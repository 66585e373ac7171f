"""Distribution shapes and what they mean for parallel scaling.

A pure-model example (no solver runs): for four runtime-distribution shapes
with the *same mean*, show how differently the multi-walk speed-up behaves —
the central insight of the paper (Sections 3.3–3.4 and the Costas
discussion in Section 7):

* non-shifted exponential  -> perfectly linear speed-up;
* shifted exponential      -> finite limit ``1 + 1/(x0 * lambda)``;
* lognormal                -> fast initial growth, then saturation;
* Pareto (heavy tail)      -> super-linear speed-up at small core counts.

Also demonstrates defining a custom distribution family: subclassing
:class:`~repro.core.distributions.base.RuntimeDistribution` is all it takes
for the family to get minimum transforms and speed-up curves.

Run with:  python examples/distribution_shapes.py
"""

from __future__ import annotations

import math
from typing import ClassVar, Mapping

import numpy as np

from repro.core.distributions import (
    LogNormalRuntime,
    ParetoRuntime,
    ShiftedExponential,
)
from repro.core.distributions.base import RuntimeDistribution
from repro.core.speedup import SpeedupModel

MEAN = 1000.0
CORES = [1, 2, 4, 8, 16, 32, 64, 128, 256]


class HalfLogisticRuntime(RuntimeDistribution):
    """Half-logistic distribution — a user-defined family.

    Only ``pdf``, ``cdf``, ``mean``, ``sample`` and ``params`` are needed;
    the minimum transform, speed-up curves and quantiles come for free from
    the base class.
    """

    name: ClassVar[str] = "half_logistic"

    def __init__(self, scale: float) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def params(self) -> Mapping[str, float]:
        return {"scale": self.scale}

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        z = np.clip(t / self.scale, 0.0, None)
        out = np.where(t < 0, 0.0, 2.0 * np.exp(-z) / (self.scale * (1.0 + np.exp(-z)) ** 2))
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        z = np.clip(t / self.scale, 0.0, None)
        out = np.where(t < 0, 0.0, (1.0 - np.exp(-z)) / (1.0 + np.exp(-z)))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.scale * math.log(4.0)

    def sample(self, rng, size=None):
        return np.abs(rng.logistic(loc=0.0, scale=self.scale, size=size))


def main() -> None:
    distributions = {
        "exponential (x0=0)": ShiftedExponential(x0=0.0, lam=1.0 / MEAN),
        "shifted exponential (x0=mean/2)": ShiftedExponential(x0=MEAN / 2, lam=2.0 / MEAN),
        "lognormal (sigma=1.2)": LogNormalRuntime(
            mu=math.log(MEAN) - 0.5 * 1.2**2, sigma=1.2, x0=0.0
        ),
        "Pareto (alpha=1.5)": ParetoRuntime(x_m=MEAN / 3.0, alpha=1.5),
        "half-logistic (custom family)": HalfLogisticRuntime(scale=MEAN / math.log(4.0)),
    }

    print(f"all distributions share the same mean runtime: {MEAN:.0f}\n")
    header = f"{'cores':>6s} " + " ".join(f"{name[:18]:>20s}" for name in distributions)
    print(header)
    models = {name: SpeedupModel(dist) for name, dist in distributions.items()}
    for n in CORES:
        row = f"{n:>6d} " + " ".join(f"{models[name].speedup(n):>20.1f}" for name in distributions)
        print(row)

    print("\nasymptotic limits:")
    for name, model in models.items():
        limit = model.limit()
        rendered = "unbounded (linear)" if math.isinf(limit) else f"{limit:.1f}"
        print(f"  {name:<32s} {rendered}")


if __name__ == "__main__":
    main()

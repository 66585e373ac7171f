"""Moments of order statistics for runtime distributions.

The paper's key quantity is the expectation of the *first* order statistic
(minimum) of ``n`` i.i.d. draws from the sequential runtime distribution
``Y``:

``E[Z(n)] = n * Integral t f_Y(t) (1 - F_Y(t))^(n-1) dt``

which, for a non-negative random variable, can equally be written as the
integral of the survival function of the minimum:

``E[Z(n)] = low + Integral_{low}^{inf} (1 - F_Y(t))^n dt``

(``low`` being the lower end of the support).  This module provides robust
numerical evaluation of both forms, the quantile-domain form used when the
tail decays too fast for direct quadrature, and — because the paper cites
Nadarajah's explicit order-statistic moments — general ``k``-th order
statistic moments.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.distributions.base import RuntimeDistribution

__all__ = [
    "expected_minimum",
    "expected_minimum_quantile_form",
    "expected_minimum_survival_form",
    "order_statistic_moment",
    "raw_moment",
]

#: Relative tolerance requested from the quadrature routines.
_QUAD_EPSREL = 1e-9
#: Survival probability below which the integrand is treated as negligible.
_TAIL_EPS = 1e-14


def _support_or_raise(dist: "RuntimeDistribution") -> tuple[float, float]:
    low, high = dist.support()
    if not math.isfinite(low):
        raise ValueError(f"distribution {dist!r} has an unbounded lower support")
    return low, high


def _upper_integration_bound(dist: "RuntimeDistribution", n_cores: int) -> float:
    """Point beyond which ``(1 - F_Y)^n`` is numerically negligible."""
    # (1 - F)^n <= eps  <=>  F >= 1 - eps^(1/n)
    prob = 1.0 - _TAIL_EPS ** (1.0 / n_cores)
    prob = min(max(prob, 1e-12), 1.0 - 1e-15)
    return dist.quantile(prob)


def expected_minimum_survival_form(dist: "RuntimeDistribution", n_cores: int) -> float:
    """``E[Z(n)]`` by integrating the survival function of the minimum.

    ``E[Z(n)] = low + Integral_{low}^{high} (1 - F_Y(t))^n dt`` — the
    integrand is monotone decreasing from 1 to 0, which quadrature handles
    well provided the upper bound is placed where the tail has died out.
    Returns NaN when the quadrature flags its own result (e.g. "extremely
    bad integrand behavior" where the knee sits far above a large shift).
    """
    from scipy import integrate

    if n_cores < 1:
        raise ValueError(f"number of cores must be >= 1, got {n_cores}")
    low, high = _support_or_raise(dist)
    upper = high if math.isfinite(high) else _upper_integration_bound(dist, n_cores)
    if upper <= low:
        return low

    def integrand(t: float) -> float:
        sf = float(dist.sf(t))
        if sf <= 0.0:
            return 0.0
        return sf**n_cores

    # Interior waypoints help quad find the knee of the integrand, which for
    # large n sits very close to the lower support bound.
    waypoints = []
    for prob in (0.5, 0.9, 0.99):
        q = dist.quantile(1.0 - (1.0 - prob) ** (1.0 / n_cores)) if n_cores > 1 else dist.quantile(prob)
        if low < q < upper:
            waypoints.append(q)
    # full_output makes quad return its diagnosis (a fourth item) instead of
    # warning, so a result it flags as unreliable never passes for sound.
    value, _abserr, _info, *flagged = integrate.quad(
        integrand,
        low,
        upper,
        points=sorted(set(waypoints)) or None,
        limit=400,
        epsrel=_QUAD_EPSREL,
        epsabs=0.0,
        full_output=1,
    )
    return math.nan if flagged else low + value


def expected_minimum_quantile_form(dist: "RuntimeDistribution", n_cores: int) -> float:
    """``E[Z(n)]`` via the quantile (inverse-CDF) representation.

    Writing ``Q_Y`` for the quantile function of ``Y``, the minimum of ``n``
    draws has quantile function ``Q_Z(p) = Q_Y(1 - (1 - p)^(1/n))``, so

    ``E[Z(n)] = Integral_0^1 Q_Y(1 - (1 - p)^(1/n)) dp``.

    This form is preferred when the survival integrand is too stiff (very
    heavy tails) but requires an accurate quantile function.
    """
    from scipy import integrate

    if n_cores < 1:
        raise ValueError(f"number of cores must be >= 1, got {n_cores}")

    def integrand(p: float) -> float:
        prob = -math.expm1(math.log1p(-p) / n_cores) if n_cores > 1 else p
        # Equivalent to 1 - (1 - p)^(1/n) but stable near p = 0 and p = 1.
        return dist.quantile(min(max(prob, 0.0), 1.0 - 1e-16))

    value, _abserr = integrate.quad(
        integrand, 0.0, 1.0, limit=400, epsrel=_QUAD_EPSREL, epsabs=0.0
    )
    return value


def expected_minimum(dist: "RuntimeDistribution", n_cores: int) -> float:
    """Expected value of the minimum of ``n_cores`` i.i.d. draws from ``dist``.

    Evaluates the survival-function integral and falls back to the
    quantile-domain integral when that quadrature fails, flags its result
    or does not give a finite value.
    """
    try:
        value = expected_minimum_survival_form(dist, n_cores)
    except Exception:  # pragma: no cover - defensive fallback
        return expected_minimum_quantile_form(dist, n_cores)
    if not math.isfinite(value):
        return expected_minimum_quantile_form(dist, n_cores)
    return value


def order_statistic_moment(
    dist: "RuntimeDistribution",
    n: int,
    k: int,
    moment: int = 1,
) -> float:
    """``E[X_(k:n)^moment]`` — the ``moment``-th raw moment of the ``k``-th order statistic.

    Implements the textbook integral (David & Nagaraja, eq. 2.2; the explicit
    formulas of Nadarajah 2008 reduce to the same one-dimensional quadrature
    for the families used here):

    ``E[X_(k:n)^m] = C(n, k) * k * Integral t^m f(t) F(t)^(k-1) (1 - F(t))^(n-k) dt``.

    ``k = 1`` recovers the minimum used throughout the paper.
    """
    from scipy import integrate, special

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if moment < 1:
        raise ValueError(f"moment must be >= 1, got {moment}")
    low, high = _support_or_raise(dist)
    upper = high if math.isfinite(high) else dist.quantile(1.0 - 1e-12)
    coeff = float(special.comb(n, k, exact=False)) * k

    def integrand(t: float) -> float:
        f = float(dist.pdf(t))
        if f <= 0.0:
            return 0.0
        cdf = float(dist.cdf(t))
        sf = 1.0 - cdf
        return (t**moment) * f * cdf ** (k - 1) * sf ** (n - k)

    waypoints = [dist.quantile(p) for p in (0.05, 0.25, 0.5, 0.75, 0.95)]
    waypoints = [w for w in waypoints if low < w < upper]
    value, _abserr = integrate.quad(
        integrand,
        low,
        upper,
        points=sorted(set(waypoints)) or None,
        limit=400,
        epsrel=1e-8,
        epsabs=0.0,
    )
    return coeff * value


def raw_moment(dist: "RuntimeDistribution", order: int = 1) -> float:
    """``E[Y^order]`` by quadrature (used for variance fallbacks)."""
    from scipy import integrate

    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    low, high = _support_or_raise(dist)
    upper = high if math.isfinite(high) else dist.quantile(1.0 - 1e-12)

    def integrand(t: float) -> float:
        return (t**order) * float(dist.pdf(t))

    waypoints = [dist.quantile(p) for p in (0.05, 0.25, 0.5, 0.75, 0.95)]
    waypoints = [w for w in waypoints if low < w < upper]
    value, _abserr = integrate.quad(
        integrand,
        low,
        upper,
        points=sorted(set(waypoints)) or None,
        limit=400,
        epsrel=1e-9,
        epsabs=0.0,
    )
    return value

"""Descriptive and nonparametric statistics for runtime observations.

Supports the evaluation section of the paper:

* :mod:`repro.stats.descriptive` — min / mean / median / max summaries
  (Tables 1 and 2) and their max-over-min dispersion.
* :mod:`repro.stats.histogram` — normalised histograms overlaid with fitted
  densities (Figures 8, 10, 12).
* :mod:`repro.stats.bootstrap` — bootstrap confidence intervals for means,
  speed-ups and fitted parameters.
* :mod:`repro.stats.online` — censoring-aware streaming fitters (Welford
  moments, incremental censored-exponential MLE, running lognormal MLE)
  used by the live campaign controller.
"""

from repro.stats.bootstrap import bootstrap_ci, bootstrap_speedup_ci
from repro.stats.descriptive import RuntimeSummary, summarize
from repro.stats.online import (
    StreamingCensoredExponential,
    StreamingLognormal,
    StreamingMoments,
    censored_mean_or_none,
)
from repro.stats.histogram import HistogramOverlay, density_histogram, histogram_with_fit

__all__ = [
    "HistogramOverlay",
    "RuntimeSummary",
    "StreamingCensoredExponential",
    "StreamingLognormal",
    "StreamingMoments",
    "bootstrap_ci",
    "bootstrap_speedup_ci",
    "censored_mean_or_none",
    "density_histogram",
    "histogram_with_fit",
    "summarize",
]

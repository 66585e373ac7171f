"""Descriptive summaries of runtime observations (Tables 1 and 2).

The paper reports the minimum, mean, median and maximum of the sequential
runtimes and iteration counts, and highlights the dispersion ("a ratio of a
few thousands between the minimum and the maximum runtimes") as the
signature of a Las Vegas algorithm worth parallelising.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

__all__ = ["RuntimeSummary", "summarize"]


@dataclasses.dataclass(frozen=True)
class RuntimeSummary:
    """Min / mean / median / max summary of a batch of runtimes."""

    n_runs: int
    minimum: float
    mean: float
    median: float
    maximum: float
    std: float

    def as_row(self) -> tuple[float, float, float, float]:
        """The four columns the paper's Tables 1 and 2 report."""
        return (self.minimum, self.mean, self.median, self.maximum)

    def dispersion(self) -> float:
        """Max-over-min ratio (infinite when the minimum is zero)."""
        if self.minimum == 0.0:
            return float("inf")
        return self.maximum / self.minimum

    def format_row(self, label: str, precision: int = 1) -> str:
        """Render one table row the way the paper prints it."""
        cells = "  ".join(f"{value:>14,.{precision}f}" for value in self.as_row())
        return f"{label:<12s}  {cells}"


def summarize(observations: Sequence[float] | np.ndarray) -> RuntimeSummary:
    """Compute the Table 1 / Table 2 summary of a batch of observations."""
    data = np.asarray(observations, dtype=float).ravel()
    if data.size == 0:
        raise ValueError("cannot summarise an empty batch of observations")
    if not np.all(np.isfinite(data)):
        raise ValueError("observations must be finite")
    return RuntimeSummary(
        n_runs=int(data.size),
        minimum=float(data.min()),
        mean=float(data.mean()),
        median=float(np.median(data)),
        maximum=float(data.max()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
    )


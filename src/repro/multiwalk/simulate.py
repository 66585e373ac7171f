"""Simulated independent multi-walk execution.

The paper measured its "experimental" speed-ups on a 256-core cluster by
running the same code with ``k`` communicating-free walks and averaging 50
parallel runs.  An independent multi-walk exchanges no information between
walks, so its runtime is *exactly* the minimum of ``k`` independent
sequential runtimes; this module therefore measures speed-ups by grouping
independent sequential observations into blocks of ``k`` and averaging the
block minima — the hardware substitution of this reproduction (see the
``repro.experiments`` entry of ``docs/architecture.md``).

The blocks are bootstrap blocks: each is ``k`` observations drawn with
replacement, so any sample size serves any core count (with a slight bias
for very small samples).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.multiwalk.observations import RuntimeObservations

__all__ = ["MultiwalkMeasurement", "simulate_multiwalk_speedups"]

#: Core counts reported throughout the paper's evaluation tables.
PAPER_CORE_COUNTS: tuple[int, ...] = (16, 32, 64, 128, 256)


@dataclasses.dataclass(frozen=True)
class MultiwalkMeasurement:
    """Measured (simulated) multi-walk performance for a set of core counts."""

    label: str
    measure: str
    cores: tuple[int, ...]
    mean_parallel_cost: tuple[float, ...]
    speedups: tuple[float, ...]
    sequential_mean: float
    n_parallel_runs: int

    def as_dict(self) -> dict[int, float]:
        """Core count -> measured speed-up."""
        return dict(zip(self.cores, self.speedups))

    def speedup(self, n_cores: int) -> float:
        try:
            return self.as_dict()[int(n_cores)]
        except KeyError:
            raise KeyError(f"no measurement for {n_cores} cores (have {self.cores})") from None

    def __iter__(self):
        return iter(zip(self.cores, self.speedups))


def simulate_multiwalk_speedups(
    observations: RuntimeObservations | Sequence[float] | np.ndarray,
    cores: Sequence[int] = PAPER_CORE_COUNTS,
    *,
    measure: str = "iterations",
    n_parallel_runs: int = 50,
    rng: np.random.Generator | None = None,
) -> MultiwalkMeasurement:
    """Measure multi-walk speed-ups by simulating first-finisher-wins blocks.

    Parameters
    ----------
    observations:
        A batch of runs (its ``measure`` column is used, and its label is
        copied into the result) or raw sequential cost values.
    cores:
        Core counts to simulate (defaults to the paper's 16…256).
    measure:
        ``"iterations"`` or ``"time"``: which column of a batch to use,
        recorded in the returned measurement either way.
    n_parallel_runs:
        Number of simulated parallel executions per core count (the paper
        averages 50 parallel runs).
    rng:
        Random generator (fresh default when omitted).
    """
    label = "observations"
    if isinstance(observations, RuntimeObservations):
        label, observations = observations.label, observations.values(measure)
    data = np.asarray(observations, dtype=float).ravel()
    if data.size == 0:
        raise ValueError("simulation needs at least one observation")
    core_list = [int(c) for c in cores]
    if not core_list or any(c < 1 for c in core_list):
        raise ValueError(f"core counts must be positive integers, got {cores!r}")
    if n_parallel_runs < 1:
        raise ValueError(f"n_parallel_runs must be >= 1, got {n_parallel_runs}")
    generator = rng if rng is not None else np.random.default_rng()

    sequential_mean = float(data.mean())
    means: list[float] = []
    speedups: list[float] = []
    for n_cores in core_list:
        # One core is an ordinary block size of 1: the measurement must come
        # from the same sampling scheme (and sample size) as every other
        # core count, otherwise the 1-core point of a speed-up curve is
        # estimated from a different number of simulated parallel runs.
        draws = generator.choice(data, size=(n_parallel_runs, n_cores), replace=True)
        mean_cost = float(draws.min(axis=1).mean())
        means.append(mean_cost)
        speedups.append(sequential_mean / mean_cost if mean_cost > 0 else float("inf"))
    return MultiwalkMeasurement(
        label=label,
        measure=measure,
        cores=tuple(core_list),
        mean_parallel_cost=tuple(means),
        speedups=tuple(speedups),
        sequential_mean=sequential_mean,
        n_parallel_runs=n_parallel_runs,
    )

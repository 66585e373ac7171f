"""Las Vegas algorithm interface (Definition 1 of the paper).

A Las Vegas algorithm always returns a *correct* solution when it
terminates, but its runtime is a random variable.  Every solver in this
package implements :class:`LasVegasAlgorithm`: a :meth:`run` method that
executes one independent randomised run and reports a :class:`RunResult`
with the cost measured both in iterations (machine-independent, the paper's
preferred measure) and wall-clock seconds.

Both local-search solvers take an ``evaluation`` setting,
:data:`EVALUATION_MODES`, that picks how their hot loop evaluates moves:
``"auto"`` lets the solver choose, ``"incremental"`` demands its
counter-maintained kernel and ``"batch"`` forces the from-scratch oracle.
Both paths yield bit-identical runs; the choice only affects speed.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Any

import numpy as np

__all__ = ["EVALUATION_MODES", "LasVegasAlgorithm", "RunResult", "validate_evaluation_mode"]

#: Accepted values of the ``evaluation`` attribute of the local-search
#: solver configs.
EVALUATION_MODES: tuple[str, ...] = ("auto", "incremental", "batch")


def validate_evaluation_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` is a known evaluation mode."""
    if mode not in EVALUATION_MODES:
        raise ValueError(f"evaluation must be one of {EVALUATION_MODES}, got {mode!r}")


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Outcome of one sequential run of a Las Vegas algorithm.

    Attributes
    ----------
    solved:
        Whether the run terminated with a (guaranteed-correct) solution
        before hitting its iteration budget.
    iterations:
        Number of elementary iterations performed — the machine-independent
        cost measure the paper prefers.
    runtime_seconds:
        Wall-clock duration of the run.
    solution:
        The solution object (problem-specific), or ``None`` if unsolved.
    restarts:
        Number of full restarts performed during the run.
    seed:
        Seed of the random stream that produced the run (for replay).
    """

    solved: bool
    iterations: int
    runtime_seconds: float
    solution: Any = None
    restarts: int = 0
    seed: int | None = None

    def cost(self, measure: str = "iterations") -> float:
        """Return the runtime under the requested measure.

        ``measure`` is ``"iterations"`` or ``"time"`` (wall-clock seconds).
        """
        if measure == "iterations":
            return float(self.iterations)
        if measure == "time":
            return float(self.runtime_seconds)
        raise ValueError(f"unknown cost measure {measure!r}; use 'iterations' or 'time'")


class LasVegasAlgorithm(abc.ABC):
    """A randomised algorithm whose runtime is a random variable.

    Subclasses implement :meth:`_run` (a single randomised attempt driven by
    a ``numpy`` generator); the public :meth:`run` wraps it with timing and
    seed bookkeeping so results are reproducible and comparable.
    """

    #: Human-readable name used in reports and experiment tables.
    name: str = "las-vegas"

    @abc.abstractmethod
    def _run(self, rng: np.random.Generator) -> RunResult:
        """Execute one randomised run using the provided generator."""

    def run(self, seed: int | np.random.Generator | None = None) -> RunResult:
        """Execute one independent run.

        Parameters
        ----------
        seed:
            Integer seed, an existing generator, or ``None`` for a fresh
            nondeterministic seed.  When an integer is given it is recorded
            in the returned :class:`RunResult` for replay.
        """
        if isinstance(seed, np.random.Generator):
            rng = seed
            recorded_seed = None
        else:
            recorded_seed = int(seed) if seed is not None else None
            rng = np.random.default_rng(seed)
        start = time.perf_counter()
        result = self._run(rng)
        elapsed = time.perf_counter() - start
        return dataclasses.replace(result, runtime_seconds=elapsed, seed=recorded_seed)

    def describe(self) -> str:
        """Short description used by experiment reports."""
        return self.name

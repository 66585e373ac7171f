"""Container for batches of sequential run observations.

:class:`RuntimeObservations` is the interchange format between the solver
layer (which produces runs), the statistics layer (Tables 1–2, fitting) and
the prediction layer.  It stores, per run: iteration count, wall-clock time,
whether the run solved the instance within its budget, and the seed — enough
to replay or censor runs, and to serialise batches to JSON so that expensive
solver campaigns can be cached between experiments.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.solvers.base import RunResult

__all__ = ["RuntimeObservations", "atomic_write_bytes"]


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no reader ever sees a torn file.

    The bytes go to a uniquely named sibling that then replaces ``path``;
    the temporary file is removed whether or not the write succeeds.  The
    uuid component keeps temporary names collision-free across hosts
    sharing a filesystem (PIDs alone collide).
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclasses.dataclass(frozen=True)
class RuntimeObservations:
    """Immutable batch of independent sequential runs of one algorithm.

    Attributes
    ----------
    label:
        Name of the algorithm/instance the runs belong to (e.g. ``"AI 700"``).
    iterations:
        Iteration count of each run.
    runtimes:
        Wall-clock seconds of each run.
    solved:
        Whether each run terminated with a solution within its budget.
    seeds:
        Seed of each run (-1 when unknown).
    """

    label: str
    iterations: np.ndarray
    runtimes: np.ndarray
    solved: np.ndarray
    seeds: np.ndarray

    def __post_init__(self) -> None:
        iterations = np.asarray(self.iterations, dtype=float)
        runtimes = np.asarray(self.runtimes, dtype=float)
        solved = np.asarray(self.solved, dtype=bool)
        seeds = np.asarray(self.seeds, dtype=np.int64)
        sizes = {iterations.size, runtimes.size, solved.size, seeds.size}
        if len(sizes) != 1:
            raise ValueError(f"field lengths differ: {sizes}")
        if iterations.size == 0:
            raise ValueError("an observation batch must contain at least one run")
        if np.any(iterations < 0) or np.any(runtimes < 0):
            raise ValueError("iteration counts and runtimes must be non-negative")
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "runtimes", runtimes)
        object.__setattr__(self, "solved", solved)
        object.__setattr__(self, "seeds", seeds)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_results(cls, label: str, results: Iterable[RunResult]) -> "RuntimeObservations":
        """Build a batch from :class:`RunResult` records."""
        results = list(results)
        if not results:
            raise ValueError("an observation batch must contain at least one run")
        return cls(
            label=label,
            iterations=np.array([r.iterations for r in results], dtype=float),
            runtimes=np.array([r.runtime_seconds for r in results], dtype=float),
            solved=np.array([r.solved for r in results], dtype=bool),
            seeds=np.array(
                [r.seed if r.seed is not None else -1 for r in results], dtype=np.int64
            ),
        )

    @classmethod
    def from_values(
        cls,
        label: str,
        values: Sequence[float] | np.ndarray,
        *,
        measure: str = "iterations",
    ) -> "RuntimeObservations":
        """Build a batch from raw cost values (all runs assumed solved).

        Useful for feeding synthetic samples or externally measured runtimes
        into the prediction pipeline.
        """
        data = np.asarray(values, dtype=float).ravel()
        zeros = np.zeros_like(data)
        iterations = data if measure == "iterations" else zeros
        runtimes = data if measure == "time" else zeros
        if measure not in {"iterations", "time"}:
            raise ValueError(f"unknown measure {measure!r}")
        return cls(
            label=label,
            iterations=iterations,
            runtimes=runtimes,
            solved=np.ones(data.size, dtype=bool),
            seeds=np.full(data.size, -1, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return int(self.iterations.size)

    @property
    def n_solved(self) -> int:
        return int(self.solved.sum())

    def success_rate(self) -> float:
        """Fraction of runs that solved the instance within their budget."""
        return self.n_solved / self.n_runs

    def values(self, measure: str = "iterations", *, solved_only: bool = True) -> np.ndarray:
        """Cost values under the requested measure.

        Unsolved runs are censored observations (the run was cut by its
        budget); by default they are excluded, matching the paper's protocol
        where every counted run reached a solution.
        """
        if measure == "iterations":
            data = self.iterations
        elif measure == "time":
            data = self.runtimes
        else:
            raise ValueError(f"unknown measure {measure!r}; use 'iterations' or 'time'")
        if solved_only:
            data = data[self.solved]
            if data.size == 0:
                raise ValueError(f"no solved runs in batch {self.label!r}")
        return data.copy()

    def __len__(self) -> int:
        return self.n_runs

    def __iter__(self) -> Iterator[tuple[float, float, bool]]:
        return iter(zip(self.iterations, self.runtimes, self.solved))

    # ------------------------------------------------------------------
    # Combination and persistence
    # ------------------------------------------------------------------
    def extend(self, other: "RuntimeObservations") -> "RuntimeObservations":
        """Concatenate two batches (labels must match)."""
        if other.label != self.label:
            raise ValueError(f"cannot merge batches with labels {self.label!r} and {other.label!r}")
        return RuntimeObservations(
            label=self.label,
            iterations=np.concatenate([self.iterations, other.iterations]),
            runtimes=np.concatenate([self.runtimes, other.runtimes]),
            solved=np.concatenate([self.solved, other.solved]),
            seeds=np.concatenate([self.seeds, other.seeds]),
        )

    def subset(self, indices: Sequence[int] | np.ndarray) -> "RuntimeObservations":
        """Select a subset of runs by index (used by ablation studies)."""
        idx = np.asarray(indices, dtype=int)
        return RuntimeObservations(
            label=self.label,
            iterations=self.iterations[idx],
            runtimes=self.runtimes[idx],
            solved=self.solved[idx],
            seeds=self.seeds[idx],
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "label": self.label,
            "iterations": self.iterations.tolist(),
            "runtimes": self.runtimes.tolist(),
            "solved": self.solved.tolist(),
            "seeds": self.seeds.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RuntimeObservations":
        return cls(
            label=str(payload["label"]),
            iterations=np.asarray(payload["iterations"], dtype=float),
            runtimes=np.asarray(payload["runtimes"], dtype=float),
            solved=np.asarray(payload["solved"], dtype=bool),
            seeds=np.asarray(payload["seeds"], dtype=np.int64),
        )

    def save(self, path: str | Path) -> int:
        """Write the batch to a JSON file atomically; returns its size in bytes."""
        data = json.dumps(self.to_dict()).encode("utf-8")
        atomic_write_bytes(Path(path), data)
        return len(data)

    @classmethod
    def load(cls, path: str | Path) -> "RuntimeObservations":
        """Read a batch previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

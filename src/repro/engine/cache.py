"""On-disk cache for collected observation batches.

Solver campaigns dominate the cost of every solver-backed experiment, yet
for a fixed ``(solver, configuration, problem, base seed, start, run
count)`` the batch is fully deterministic — so re-running it is pure waste.
:class:`ObservationCache` persists each batch as JSON under a key derived
from exactly those ingredients; repeated campaigns (across processes, CLI
invocations or backends) are then free.  Because seed derivation is
backend-independent (see :mod:`repro.engine.seeding`), a batch collected on
one backend is a valid cache hit for every other backend.
:class:`MemoryObservationCache` keeps the same content-addressed batches in
a dictionary instead, for callers that want reuse within one process only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from pathlib import Path
from typing import Any

import numpy as np

from repro.multiwalk.observations import RuntimeObservations
from repro.solvers.base import LasVegasAlgorithm

__all__ = ["MemoryObservationCache", "ObservationCache", "algorithm_fingerprint"]

#: File-name prefix of every cached batch: ``observations-{digest}.json``.
_FILE_PREFIX = "observations"


def _token(value: Any) -> str:
    """Render one constituent of an algorithm's identity as a stable string."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        inner = ",".join(f"{k}={_token(v)}" for k, v in sorted(fields.items()))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, np.ndarray):
        return f"ndarray({value.dtype},{value.shape},{hashlib.sha256(value.tobytes()).hexdigest()[:16]})"
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, frozenset) else value
        return f"{type(value).__name__}[" + ",".join(_token(v) for v in items) + "]"
    # Arbitrary objects (problem instances, CNF formulas, ...): hash the
    # pickled content.  A repr() fallback would collide whenever two
    # different instances print alike (e.g. two random k-SAT formulas with
    # the same clause/variable counts), silently serving the wrong batch.
    try:
        digest = hashlib.sha256(pickle.dumps(value)).hexdigest()[:16]
    except Exception:
        return repr(value)
    name = type(value).__name__
    if hasattr(value, "describe") and callable(value.describe):
        return f"{name}[{value.describe()},{digest}]"
    return f"{name}[{digest}]"


def algorithm_fingerprint(algorithm: LasVegasAlgorithm) -> str:
    """Stable hex digest of an algorithm's class, problem and configuration.

    Covers every public instance attribute (solver config dataclasses,
    problem instances and formulas by pickled-content hash, raw arrays by
    content hash), so two solver objects built the same way collide and any
    parameter or instance-data change produces a fresh key.

    The fingerprint reflects the algorithm's *current* state; callers must
    take it before running (see :func:`repro.engine.core.collect_batch`).
    Algorithms that mutate instance attributes during ``run()`` therefore
    miss the cache across mutated states — a safe failure mode (re-run, not
    wrong data); keep runtime counters out of instance attributes.
    """
    parts = [type(algorithm).__qualname__, algorithm.describe()]
    for attr, value in sorted(vars(algorithm).items()):
        parts.append(f"{attr}={_token(value)}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


class ObservationCache:
    """Directory of JSON-serialised :class:`RuntimeObservations` batches.

    Files are named ``observations-{digest}.json`` where the digest hashes the
    full cache key ``(algorithm fingerprint, label, n_runs, base_seed)``,
    plus the batch's ``start`` in its seed stream when that is not 0.
    The cache is purely content-addressed: there is no invalidation beyond
    "a different key is a different file", which is exactly right for
    deterministic campaigns.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def key(
        self,
        algorithm: LasVegasAlgorithm,
        n_runs: int,
        base_seed: int,
        *,
        label: str | None = None,
        start: int = 0,
    ) -> str:
        """Hex digest identifying one batch."""
        ingredients = [
            algorithm_fingerprint(algorithm),
            label or algorithm.describe(),
            f"n_runs={int(n_runs)}",
            f"base_seed={int(base_seed)}",
        ]
        if start > 0:  # so a batch at the head of its stream keeps existing file names
            ingredients.append(f"start={int(start)}")
        return hashlib.sha256("|".join(ingredients).encode()).hexdigest()[:24]

    def path_for(
        self,
        algorithm: LasVegasAlgorithm,
        n_runs: int,
        base_seed: int,
        *,
        label: str | None = None,
        start: int = 0,
    ) -> Path:
        """Cache file a batch with these parameters lives at."""
        digest = self.key(algorithm, n_runs, base_seed, label=label, start=start)
        return self.directory / f"{_FILE_PREFIX}-{digest}.json"

    # -- persistence hooks ---------------------------------------------
    # Key derivation above is the contract every layer shares; *where* the
    # bytes live is a policy subclasses may override (the campaign service
    # routes these through a shared multi-tenant store with LRU eviction).
    def read_batch(self, path: Path) -> RuntimeObservations | None:
        """Read the batch at a derived cache path (``None`` on a miss)."""
        if not path.exists():
            return None
        return RuntimeObservations.load(path)

    def write_batch(self, observations: RuntimeObservations, path: Path) -> None:
        """Write a batch to a derived cache path."""
        observations.save(path)


class MemoryObservationCache(ObservationCache):
    """Content-addressed batches kept in this process's memory.

    Keys are derived exactly as on disk; only the persistence hooks differ,
    so a batch is stored under the file name it would have in a directory
    and nothing is written anywhere.
    """

    def __init__(self) -> None:
        super().__init__(".")
        self.batches: dict[str, RuntimeObservations] = {}

    def read_batch(self, path: Path) -> RuntimeObservations | None:
        return self.batches.get(path.name)

    def write_batch(self, observations: RuntimeObservations, path: Path) -> None:
        self.batches[path.name] = observations

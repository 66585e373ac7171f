"""Picklable task payloads executed by the batch backends.

`ProcessBackend` ships tasks to spawn-context worker processes, so both the
payload and the function applied to it must be picklable, module-level
objects.  :class:`RunTask` carries one independent run (algorithm, stable
index, seed); :func:`execute_run` is the worker applied by every backend, so
serial, threaded and process execution run byte-for-byte the same code path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import Any, Callable, Sequence

from repro.solvers.base import LasVegasAlgorithm, RunResult

__all__ = [
    "PROTOCOL_VERSION",
    "RunTask",
    "UnitResult",
    "WorkUnit",
    "execute_run",
    "shard_units",
]

#: Version of the coordinator/worker wire protocol (socket and job-dir paths
#: share it).  Bump on any incompatible change to the message shapes below or
#: to the :class:`WorkUnit`/:class:`UnitResult` payloads; coordinators refuse
#: workers announcing a different version rather than mis-decode their data.
#: v2: socket handshake carries an optional auth token and workers send
#: periodic ``heartbeat`` messages while executing a unit.
#: v3: the job directory carries the socket's message stream (per-worker
#: ``up``/``down`` line files in a session directory) instead of unit,
#: claim and result files.  The layout changed, not the messages: without
#: the bump a v2 job-dir worker would poll a v3 directory forever instead of
#: being refused.
PROTOCOL_VERSION = 3


@dataclasses.dataclass(frozen=True)
class RunTask:
    """One independent run of a Las Vegas algorithm.

    Attributes
    ----------
    algorithm:
        The algorithm to run.  Must be picklable for :class:`ProcessBackend`
        (every solver in this package is).
    index:
        Stable position of the run inside its batch.  Results are
        reassembled by index, which is what makes out-of-order completion
        invisible to consumers.
    seed:
        Pre-derived seed of the run's random stream (see
        :mod:`repro.engine.seeding`).
    """

    algorithm: LasVegasAlgorithm
    index: int
    seed: int


def execute_run(task: RunTask) -> tuple[int, RunResult]:
    """Execute one task and return ``(index, result)``."""
    return task.index, task.algorithm.run(task.seed)


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One distributable block of a batch: the work-stealing granule.

    A campaign's task list is sharded into units of contiguous payloads
    (one unit per ``(task, seed-block)``), each small enough that a straggling
    worker only delays its own block while idle workers steal the rest.

    Attributes
    ----------
    unit_id:
        Globally unique id within a coordinator's lifetime
        (``"{task_id}/{block_index}"``).  Re-issue and result dedup key.
    task_id:
        Id of the batch the unit was sharded from.
    block_index:
        Position of this block inside its batch (blocks are contiguous).
    fn:
        Module-level function applied to each payload (picklable, e.g.
        :func:`execute_run`).
    payloads:
        The block's payloads, in batch order.  Seeds are pre-derived by the
        coordinator (:mod:`repro.engine.seeding`), so results do not depend
        on which worker runs the unit.
    """

    unit_id: str
    task_id: str
    block_index: int
    fn: Callable[[Any], Any]
    payloads: tuple

    def fingerprint(self) -> str:
        """Content digest of the unit's work (id-independent).

        Two units running the same function over the same payloads share a
        fingerprint no matter which campaign, batch or coordinator produced
        them — the key workers use for the shared unit-result cache.
        """
        content = (self.fn.__module__, self.fn.__qualname__, self.payloads)
        return hashlib.sha256(pickle.dumps(content)).hexdigest()[:24]


@dataclasses.dataclass(frozen=True)
class UnitResult:
    """Results of one completed :class:`WorkUnit`.

    ``values`` holds ``fn(payload)`` for every payload of the unit **in
    payload order**, regardless of the order the worker's local backend
    completed them — that is what makes unit results byte-identical across
    worker backends and eligible for content-addressed caching.
    """

    unit_id: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


def shard_units(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    task_id: str,
    unit_size: int,
) -> list[WorkUnit]:
    """Split a batch into contiguous :class:`WorkUnit` blocks of ``unit_size``."""
    if unit_size < 1:
        raise ValueError(f"unit_size must be >= 1, got {unit_size}")
    payloads = list(payloads)
    return [
        WorkUnit(
            unit_id=f"{task_id}/{block_index}",
            task_id=task_id,
            block_index=block_index,
            fn=fn,
            payloads=tuple(payloads[start : start + unit_size]),
        )
        for block_index, start in enumerate(range(0, len(payloads), unit_size))
    ]

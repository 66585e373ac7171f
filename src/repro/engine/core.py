"""High-level entry points of the execution engine.

Three operations cover every way this package launches runs:

* :func:`iter_batch` — the incremental interface: run ``n_runs`` independent
  runs and yield ``(index, result)`` pairs *as runs finish*, on any backend.
  Completion order is backend-dependent, but the set of runs is not: seeds
  are derived up front from ``(base_seed, start, n_runs)`` alone, so the
  yielded indices always form a permutation of ``range(start, start +
  n_runs)`` and reassembling results by index gives bit-identical
  observations on every backend at any worker count.  Closing the iterator
  early cancels outstanding runs.
* :func:`collect_batch` — run ``n_runs`` independent runs and assemble a
  :class:`RuntimeObservations` batch.  Implemented on top of
  :func:`iter_batch` (reassembly by index), so the batch inherits the
  backend-invariance invariant: a given base seed yields bit-identical
  iteration counts on every backend at any worker count (wall-clock times,
  of course, differ).
* :func:`run_race` — the paper's Definition 2 protocol: launch ``n_walks``
  walks, return as soon as the first *solved* walk completes and cancel the
  rest.  When no walk solves within its budget the winner is the completed
  walk with the fewest iterations, ties broken by lowest walk index so the
  outcome is reproducible even under racy completion orders.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from pathlib import Path
from typing import Iterator, Sequence

from repro.engine.backends import (
    BatchExecutor,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.engine.cache import ObservationCache
from repro.engine.distributed import DistributedBackend
from repro.engine.lockstep import LockstepBackend
from repro.engine.progress import BatchProgress, ProgressCallback
from repro.engine.seeding import spawn_seeds
from repro.engine.tasks import RunTask, execute_run
from repro.multiwalk.observations import RuntimeObservations
from repro.solvers.base import LasVegasAlgorithm, RunResult

__all__ = [
    "BACKENDS",
    "RaceOutcome",
    "collect_batch",
    "iter_batch",
    "iter_runs",
    "resolve_backend",
    "run_race",
]

#: Registry of backend names accepted wherever a backend can be specified.
BACKENDS: dict[str, type[BatchExecutor]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
    "distributed": DistributedBackend,
    "lockstep": LockstepBackend,
}


def resolve_backend(
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
) -> BatchExecutor:
    """Turn a backend spec (name, instance or ``None``) into an executor.

    ``None`` means :class:`SerialBackend`.  ``workers`` only applies when a
    name is given; pass a configured instance to control anything else.
    """
    if backend is None:
        backend = "serial"
    if isinstance(backend, BatchExecutor):
        if workers is not None:
            raise ValueError("pass workers via the backend instance, not both")
        return backend
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    if factory is SerialBackend:
        if workers not in (None, 1):
            raise ValueError("the serial backend runs exactly one worker")
        return SerialBackend()
    if factory is LockstepBackend:
        if workers not in (None, 1):
            raise ValueError(
                "the lockstep backend runs in-process; configure the batch "
                "axis via its width (CLI: --lockstep-width), not workers"
            )
        return LockstepBackend()
    return factory(workers=workers)


@contextlib.contextmanager
def _resolved(
    backend: str | BatchExecutor | None, workers: int | None
) -> Iterator[BatchExecutor]:
    """Resolve a backend spec for one call, closing it afterwards only if
    it was built here: whoever resolves a backend from a name closes it,
    and an instance passed in by the caller stays open for its next batch."""
    executor = resolve_backend(backend, workers)
    try:
        yield executor
    finally:
        if executor is not backend:
            executor.close()


def iter_runs(
    algorithm: LasVegasAlgorithm,
    seeds: Sequence[int],
    *,
    indices: Sequence[int] | None = None,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    chunksize: int | None = None,
) -> Iterator[tuple[int, RunResult]]:
    """Run ``algorithm`` once per seed, yielding ``(index, result)`` as runs finish.

    The low-level streaming primitive beneath :func:`iter_batch`: callers
    that derive their own seed streams pass explicit seeds and, optionally,
    the stable ``indices`` the results should be attributed to (default:
    positions in ``seeds``).  Completion order is backend-dependent; the
    index carried with each result is not.  Closing the iterator early cancels
    outstanding runs (best effort, see the backends).
    """
    seeds = list(seeds)
    if indices is None:
        indices = range(len(seeds))
    else:
        indices = list(indices)
        if len(indices) != len(seeds):
            raise ValueError(
                f"got {len(indices)} indices for {len(seeds)} seeds; they must pair up"
            )
    payloads = [
        RunTask(algorithm, index, seed) for index, seed in zip(indices, seeds)
    ]
    with _resolved(backend, workers) as executor:
        iterator = executor.imap_unordered(execute_run, payloads, chunksize=chunksize)
        try:
            yield from iterator
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()  # cancel outstanding runs when the consumer stops early


def iter_batch(
    algorithm: LasVegasAlgorithm,
    n_runs: int,
    *,
    base_seed: int = 0,
    start: int = 0,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    chunksize: int | None = None,
) -> Iterator[tuple[int, RunResult]]:
    """Incrementally run a batch, yielding ``(index, result)`` as runs finish.

    The streaming face of :func:`collect_batch`: same seeds (derived here
    only: ``spawn_seeds(base_seed, start + n_runs)[start:]``), same
    backends, but observations are surfaced the moment their run completes
    instead of after the whole batch.  The yielded indices form a
    permutation of ``range(start, start + n_runs)``; reassembling results
    by index reproduces :func:`collect_batch` bit for bit on every backend.
    Consumers acting on the stream (online fitting, adaptive scheduling)
    therefore observe *when* runs finish without ever influencing *what*
    the runs are.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    yield from iter_runs(
        algorithm,
        spawn_seeds(base_seed, start + n_runs)[start:],
        indices=range(start, start + n_runs),
        backend=backend,
        workers=workers,
        chunksize=chunksize,
    )


def collect_batch(
    algorithm: LasVegasAlgorithm,
    n_runs: int,
    *,
    base_seed: int = 0,
    start: int = 0,
    label: str | None = None,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
    cache: ObservationCache | str | Path | None = None,
) -> RuntimeObservations:
    """Collect ``n_runs`` independent runs of ``algorithm`` as one batch.

    Parameters
    ----------
    algorithm:
        The Las Vegas algorithm to benchmark (picklable for ``"process"``).
    n_runs:
        Number of independent runs (the paper collects ~650 per benchmark).
    base_seed:
        Root of the deterministic seed tree; the only input (besides
        ``n_runs`` and ``start``) that influences which runs are executed.
    start:
        Where the batch starts in the seed stream: a batch at ``start=k``
        equals the last ``n_runs`` runs of a batch of ``k + n_runs``.
        Progress events count along the stream, from ``start``.
    label:
        Batch label; defaults to ``algorithm.describe()``.
    backend, workers:
        Where to run: ``"serial"`` (default), ``"thread"``, ``"process"``,
        or a configured :class:`BatchExecutor` instance.
    progress:
        Optional callback receiving a :class:`BatchProgress` event per
        completed run, in completion order (a cache hit emits one event,
        for the last run).
    cache:
        Optional :class:`ObservationCache` (or a directory path, which
        creates one) consulted before running and updated afterwards.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    batch_label = label or algorithm.describe()
    # Validate the backend before consulting the cache so that invalid
    # backend/workers arguments fail identically on warm and cold caches
    # (iter_runs resolves it again for the runs, closing what it builds).
    resolve_backend(backend, workers)
    cache_path: Path | None = None
    if cache is not None:
        if not isinstance(cache, ObservationCache):
            cache = ObservationCache(cache)
        # Resolve the cache location once, before any run executes: an
        # algorithm whose attributes mutate during run() would otherwise be
        # stored under a post-run fingerprint that no fresh process (probing
        # with a pristine object) could ever look up.
        cache_path = cache.path_for(
            algorithm, n_runs, base_seed, label=batch_label, start=start
        )
        load_start = time.perf_counter()
        cached = cache.read_batch(cache_path)
        if cached is not None:
            if progress is not None:
                # One completion event (fraction 1.0) so callers driving a
                # progress display can tell a cache hit from a silent hang.
                last = RunResult(
                    solved=bool(cached.solved[-1]),
                    iterations=int(cached.iterations[-1]),
                    runtime_seconds=float(cached.runtimes[-1]),
                    seed=int(cached.seeds[-1]),
                )
                progress(
                    BatchProgress(
                        index=start + n_runs - 1,
                        completed=start + n_runs,
                        total=start + n_runs,
                        result=last,
                        elapsed_seconds=time.perf_counter() - load_start,
                    )
                )
            return cached

    results: list[RunResult | None] = [None] * n_runs
    started = time.perf_counter()
    completed = 0
    for index, result in iter_batch(
        algorithm, n_runs, base_seed=base_seed, start=start, backend=backend, workers=workers
    ):
        results[index - start] = result
        completed += 1
        if progress is not None:
            progress(
                BatchProgress(
                    index=index,
                    completed=start + completed,
                    total=start + n_runs,
                    result=result,
                    elapsed_seconds=time.perf_counter() - started,
                )
            )
    assert completed == n_runs  # every backend must deliver every run
    batch = RuntimeObservations.from_results(batch_label, results)
    if cache_path is not None:
        assert isinstance(cache, ObservationCache)
        cache.write_batch(batch, cache_path)
    return batch


@dataclasses.dataclass(frozen=True)
class RaceOutcome:
    """Result of one first-finisher-wins race over ``n_walks`` walks.

    Attributes
    ----------
    n_walks:
        Number of walks launched.
    winner_index:
        Batch index of the winning walk.
    winner_result:
        The winning walk's :class:`RunResult` (its ``runtime_seconds`` is
        the per-walk wall clock, as opposed to the race total below).
    wall_clock_seconds:
        Total wall clock of the race, from launch to cancellation.
    n_completed:
        Walks that finished before the race was decided.
    """

    n_walks: int
    winner_index: int
    winner_result: RunResult
    wall_clock_seconds: float
    n_completed: int

    @property
    def solved(self) -> bool:
        return self.winner_result.solved


def run_race(
    algorithm: LasVegasAlgorithm,
    n_walks: int,
    *,
    base_seed: int = 0,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
) -> RaceOutcome:
    """Race ``n_walks`` independent walks; the first solved walk wins.

    As soon as a solved walk arrives, outstanding walks are cancelled
    (threads: pending futures dropped; processes: pool terminated).  If
    every walk exhausts its budget unsolved, the winner is the walk with the
    fewest iterations, ties broken by lowest index — a deterministic rule
    regardless of completion order.
    """
    if n_walks < 1:
        raise ValueError(f"n_walks must be >= 1, got {n_walks}")
    seeds = spawn_seeds(base_seed, n_walks)
    payloads = [RunTask(algorithm, index, seed) for index, seed in enumerate(seeds)]
    winner: tuple[int, RunResult] | None = None
    best_unsolved: tuple[int, RunResult] | None = None
    n_completed = 0
    with _resolved(backend, workers) as executor:
        start = time.perf_counter()
        # chunksize=1 so no walk waits behind a queued chunk of the same worker.
        iterator = executor.imap_unordered(execute_run, payloads, chunksize=1)
        try:
            for index, result in iterator:
                n_completed += 1
                if result.solved:
                    winner = (index, result)
                    break
                if best_unsolved is None or (result.iterations, index) < (
                    best_unsolved[1].iterations,
                    best_unsolved[0],
                ):
                    best_unsolved = (index, result)
            # The race is decided here; measure before cancellation so cleanup
            # cost (pool teardown, walks that cannot be interrupted) is not
            # charged to the race itself.
            elapsed = time.perf_counter() - start
        finally:
            iterator.close()  # cancels outstanding walks (kill-all-others)
    if winner is None:
        winner = best_unsolved
    assert winner is not None  # n_walks >= 1 guarantees at least one result
    return RaceOutcome(
        n_walks=n_walks,
        winner_index=winner[0],
        winner_result=winner[1],
        wall_clock_seconds=elapsed,
        n_completed=n_completed,
    )

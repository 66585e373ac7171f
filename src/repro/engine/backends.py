"""Execution backends: where a batch of independent runs actually runs.

A :class:`BatchExecutor` turns a sequence of picklable payloads into results,
yielding them as they complete.  Three implementations are provided:

* :class:`SerialBackend` — the current process, one run at a time.  The
  reference implementation; zero overhead, fully deterministic ordering.
* :class:`ThreadBackend` — a thread pool.  Useful when the workload releases
  the GIL (NumPy kernels) or is I/O bound; shares memory with the caller.
* :class:`ProcessBackend` — a spawn-context :mod:`multiprocessing` pool with
  chunked ``imap_unordered``, started on first use and kept warm for later
  batches until :meth:`BatchExecutor.close`.  The throughput backend for
  CPU-bound solver campaigns on multi-core hosts.

All three yield results *as completed* (unordered); consumers that need
stable ordering reassemble by the index carried in each payload (see
:func:`repro.engine.core.collect_batch`).  Closing the returned iterator
early cancels outstanding work — that is the first-finisher-wins
cancellation primitive used by :func:`repro.engine.core.run_race`: threads
have their pending futures cancelled, worker processes are terminated.

Backends are context managers; :meth:`BatchExecutor.close` releases what
they hold (the process pool).  Whoever resolves a backend from a name
closes it; an instance passed in by the caller is never closed by the
engine (see ``docs/backends.md``).
"""

from __future__ import annotations

import abc
import multiprocessing as mp
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "BatchExecutor",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_worker_count",
    "pick_default_backend",
]


def pick_default_backend() -> str:
    """Backend name for "use the hardware": process on multi-core hosts,
    serial where spawn overhead could never pay for itself."""
    return "process" if (os.cpu_count() or 1) > 1 else "serial"


def default_worker_count(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value, or one per available CPU."""
    if workers is None:
        return os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


class BatchExecutor(abc.ABC):
    """Strategy interface for executing a batch of independent tasks."""

    #: Registry name, also used in CLI flags and progress displays.
    name: str = "abstract"

    @abc.abstractmethod
    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        """Apply ``fn`` to every payload, yielding results as they complete.

        Closing the iterator before exhaustion cancels work that has not
        completed yet (best effort; runs already executing may finish).
        ``chunksize`` is a scheduling hint honoured by the process backend:
        ``None`` lets the backend choose, ``1`` minimises latency for racing.
        """

    def describe(self) -> str:
        """Human-readable identity used in logs and benchmark labels."""
        return self.name

    def close(self) -> None:
        """Release held resources (worker processes); idempotent.

        A no-op for backends that hold nothing between batches.
        """

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(BatchExecutor):
    """Run everything inline in the calling process.

    The reference backend: completion order equals submission order, there
    is no pool overhead, and early iterator close simply stops the loop.
    """

    name = "serial"

    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        for payload in payloads:
            yield fn(payload)


class ThreadBackend(BatchExecutor):
    """Run tasks on a thread pool sharing the caller's memory.

    Python threads only help when the work releases the GIL (NumPy, I/O),
    but the backend is also valuable as a cheap concurrency-correctness
    check: it exercises out-of-order completion without pickling.
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_worker_count(workers)

    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        pool = ThreadPoolExecutor(max_workers=self.workers)
        exhausted = False
        try:
            pending = {pool.submit(fn, payload) for payload in payloads}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
            exhausted = True
        finally:
            # On early close, drop queued tasks and return immediately
            # instead of blocking until in-flight tasks drain (threads
            # cannot be killed, so already-running walks finish on their
            # own budget in the background).
            pool.shutdown(wait=exhausted, cancel_futures=not exhausted)

    def describe(self) -> str:
        return f"{self.name}[workers={self.workers}]"


class ProcessBackend(BatchExecutor):
    """Run tasks on a warm spawn-context process pool (chunked ``imap_unordered``).

    The spawn start method is used on every platform: it is the only start
    method that is both fork-safe and portable, and it forces payloads
    through pickle.  The pool of ``workers`` processes starts on the first
    batch and serves every later one until :meth:`close`, so a campaign pays
    worker start-up (interpreter plus NumPy import) once, not per round.  A
    warm worker has run earlier tasks, but a task's inputs come only from
    its pickled payload — the solver, the run index and the seed — so
    results do not depend on which worker ran what before.

    Closing a batch iterator early (first finisher wins) terminates the
    pool, killing walks still executing rather than draining them; the next
    batch starts a fresh one.  One instance serves one batch at a time.
    Chunking amortises IPC for large batches; racing callers pass
    ``chunksize=1`` so no walk is held hostage behind a queued chunk.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_worker_count(workers)
        self._pool = None
        self._in_flight = False

    def _chunksize(self, n_tasks: int) -> int:
        # Aim for ~4 chunks per worker: large enough to amortise pickling,
        # small enough that a slow chunk cannot stall the tail of the batch.
        return max(1, n_tasks // (self.workers * 4))

    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        payloads = list(payloads)
        if not payloads:
            return
        effective_chunksize = self._chunksize(len(payloads)) if chunksize is None else chunksize
        if self._pool is None:
            self._pool = mp.get_context("spawn").Pool(processes=self.workers)
        pool = self._pool
        exhausted = False
        self._in_flight = True
        try:
            yield from pool.imap_unordered(fn, payloads, chunksize=effective_chunksize)
            exhausted = True
        finally:
            self._in_flight = False
            if not exhausted:
                # terminate() is the cancellation primitive: when the
                # consumer closes the iterator early (first finisher wins),
                # any walk still executing is killed rather than drained.
                if self._pool is pool:
                    self._pool = None
                pool.terminate()
                pool.join()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # A batch abandoned mid-way is killed, not drained.
            if self._in_flight:
                pool.terminate()
            else:
                pool.close()
            pool.join()

    def describe(self) -> str:
        return f"{self.name}[workers={self.workers}]"

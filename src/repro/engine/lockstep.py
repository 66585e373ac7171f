"""In-process lockstep backend: whole seed-blocks as single kernel calls.

The serial/thread/process backends all treat a batch as independent
single-run tasks; parallelism, where any, comes from running *tasks*
concurrently.  :class:`LockstepBackend` exploits a different axis: when
every task in a block runs the *same* algorithm instance and that
algorithm can advance many walks per step (``run_lockstep`` +
``lockstep_supported``, see :func:`supports_lockstep`),
the whole block is serviced by one vectorised kernel call
(:mod:`repro.sat.vectorized`) instead of N scalar loops — SIMD batching in
one process rather than task parallelism across processes.

Determinism is inherited, not re-proved: the kernel is bit-identical per
seed to the scalar loop, and blocks are formed from the same pre-derived
seed list every backend consumes, so ``collect_batch``/``run_race`` keep
the engine's hard invariant — a given ``base_seed`` yields identical
observations (iterations/solved/seed order) on every backend.  Algorithms
that are not lockstep-capable (no entry points, or a configuration the
kernel does not vectorise, e.g. WalkSAT's Novelty policies and every
non-SAT solver) fall back to the plain serial path inside the same batch,
so mixed campaigns need no routing by the caller.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.engine.backends import BatchExecutor
from repro.engine.tasks import RunTask, execute_run

__all__ = ["LockstepBackend", "supports_lockstep"]


def supports_lockstep(algorithm) -> bool:
    """Whether the engine may service this algorithm's seed-blocks in lockstep.

    True when the algorithm exposes the lockstep entry points — a
    ``run_lockstep(seeds)`` batch runner plus a ``lockstep_supported()``
    probe — and the probe accepts the current configuration (e.g. WalkSAT
    with an SKC-family policy; the Novelty family reports ``False`` and
    stays on the scalar path).  Algorithms without the entry points are
    simply not lockstep-capable; it is not an error.

    Lockstep is deliberately *not* one of the solvers' ``evaluation``
    modes (:data:`repro.solvers.base.EVALUATION_MODES`): a per-run mode
    answers "how does ONE walk evaluate its moves", whereas lockstep
    batches a whole block of walks into one kernel call, so it lives
    behind the execution engine seam instead (``--backend lockstep``).
    """
    probe = getattr(algorithm, "lockstep_supported", None)
    return (
        callable(getattr(algorithm, "run_lockstep", None))
        and callable(probe)
        and bool(probe())
    )


class LockstepBackend(BatchExecutor):
    """Service run batches through the vectorised lockstep kernel.

    Parameters
    ----------
    width:
        Maximum walks per kernel call (the batch axis ``K``).  ``None``
        (default) services each same-algorithm block of the batch as one
        kernel call.  Wider is generally faster until the state matrices
        fall out of cache; see ``benchmarks/test_bench_lockstep.py`` for
        the measured sweep.

    The backend runs entirely in the calling process (no pool, no
    pickling); results are yielded in submission order.  ``chunksize`` is
    accepted for interface compatibility and ignored — batching *is* the
    point.  Walks retire from the kernel individually (their
    ``runtime_seconds`` reflects retirement, not block completion), but
    the kernel runs every walk of a block to retirement before yielding,
    so ``run_race`` gets no first-finisher race here: it returns the
    lowest-index solved walk, the same winner as ``serial``.
    """

    name = "lockstep"

    def __init__(self, width: int | None = None) -> None:
        if width is not None:
            width = int(width)
            if width < 1:
                raise ValueError(f"lockstep width must be >= 1, got {width}")
        self.width = width

    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        payloads = list(payloads)
        if fn is not execute_run or not all(
            isinstance(payload, RunTask) for payload in payloads
        ):
            # Not a run batch (arbitrary payloads): behave like the serial
            # backend rather than guessing at a batch structure.
            for payload in payloads:
                yield fn(payload)
            return
        index = 0
        while index < len(payloads):
            # Contiguous tasks sharing one algorithm object form a block —
            # collect_batch/run_race build batches exactly this way.
            algorithm = payloads[index].algorithm
            block = [payloads[index]]
            index += 1
            while index < len(payloads) and payloads[index].algorithm is algorithm:
                block.append(payloads[index])
                index += 1
            if supports_lockstep(algorithm):
                width = self.width or len(block)
                for start in range(0, len(block), width):
                    chunk = block[start : start + width]
                    results = algorithm.run_lockstep([task.seed for task in chunk])
                    for task, result in zip(chunk, results):
                        yield task.index, result
            else:
                for task in block:
                    yield fn(task)

    def describe(self) -> str:
        width = "auto" if self.width is None else self.width
        return f"{self.name}[width={width}]"

"""Shared evaluation-path plumbing for the local-search solvers.

Both local-search solvers in this package — :class:`~repro.solvers.adaptive_search.AdaptiveSearch`
over permutation CSPs and :class:`~repro.solvers.walksat.WalkSAT` over CNF
formulas — follow the same two-path design for their hot loop:

* an *incremental* path maintains problem-specific counters attached to the
  current configuration and answers the per-move questions (candidate swap
  costs, break counts, the unsatisfied-clause set) in time proportional to
  the move's footprint instead of the instance size;
* a *batch* path recomputes everything from scratch through the vectorised
  cost functions — slower by orders of magnitude, but trivially correct, so
  it serves as the cross-check oracle and as the fallback where no
  incremental kernel exists.

The two paths are *exact* mirrors: for a given seed, a solver consuming the
incremental path takes bit-identical decisions (same RNG draws, same
tie-breaking order) to one consuming the batch path.  This module hosts the
plumbing that both solvers share:

* :data:`EVALUATION_MODES` and :func:`validate_evaluation_mode` — the
  ``evaluation = "auto" | "incremental" | "batch"`` configuration knob;
* :class:`EvaluationPath` — the lifecycle contract of one interchangeable
  path (``reinit`` on (re)starts, then per-move queries and commits);
* :func:`resolve_evaluation_path` — the mode-resolution rule (``"auto"``
  prefers the incremental path when the problem provides one and it is
  expected to win at the instance's size, ``"incremental"`` demands it,
  ``"batch"`` forces the oracle);
* :class:`IncrementalState` / :class:`IncrementalEvaluator` — the
  attach/commit/reset lifecycle shared by the CSP delta kernels
  (:class:`repro.csp.permutation.DeltaEvaluator`) and the SAT clause state
  (:mod:`repro.sat.incremental`).
"""

from __future__ import annotations

import abc
from typing import Any, Callable

__all__ = [
    "EVALUATION_MODES",
    "EvaluationPath",
    "IncrementalEvaluator",
    "IncrementalState",
    "resolve_evaluation_path",
    "supports_lockstep",
    "validate_evaluation_mode",
]

#: Accepted values of the ``evaluation`` configuration attribute of the
#: local-search solver configs.
EVALUATION_MODES: tuple[str, ...] = ("auto", "incremental", "batch")


def supports_lockstep(algorithm) -> bool:
    """Whether the engine may service this algorithm's seed-blocks in lockstep.

    True when the algorithm exposes the lockstep entry points — a
    ``run_lockstep(seeds)`` batch runner plus a ``lockstep_supported()``
    probe — and the probe accepts the current configuration (e.g. WalkSAT
    with an SKC-family policy; the Novelty family reports ``False`` and
    stays on the scalar path).  Algorithms without the entry points are
    simply not lockstep-capable; it is not an error.

    Lockstep is deliberately *not* one of :data:`EVALUATION_MODES`: a
    per-run ``evaluation`` mode answers "how does ONE walk evaluate its
    moves", whereas lockstep batches a whole block of walks into one kernel
    call, so it lives behind the execution engine seam instead
    (``--backend lockstep``, see :mod:`repro.engine.lockstep`).
    """
    probe = getattr(algorithm, "lockstep_supported", None)
    return (
        callable(getattr(algorithm, "run_lockstep", None))
        and callable(probe)
        and bool(probe())
    )


def validate_evaluation_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` is a known evaluation mode."""
    if mode not in EVALUATION_MODES:
        raise ValueError(f"evaluation must be one of {EVALUATION_MODES}, got {mode!r}")


class EvaluationPath(abc.ABC):
    """One interchangeable evaluation path of a solver hot loop.

    A path owns whatever state it needs to answer the solver's per-move
    queries; :meth:`reinit` (re)binds it to a fresh configuration — called
    once before the loop and again on every restart or partial reset.  The
    query/commit surface is solver-specific (swap costs for Adaptive
    Search, break counts and the unsatisfied-clause set for WalkSAT), but
    every implementation pair obeys the exactness contract: for identical
    configurations, the incremental and batch paths of a solver answer
    every query identically, bit for bit.
    """

    @abc.abstractmethod
    def reinit(self, configuration: Any) -> None:
        """Bind the path to a new configuration (start, restart, reset)."""


def resolve_evaluation_path(
    mode: str,
    *,
    describe: str,
    incremental: Callable[[], EvaluationPath | None],
    batch: Callable[[], EvaluationPath],
    incremental_requirement: str = "incremental evaluator",
    prefer_incremental: bool = True,
) -> EvaluationPath:
    """Pick the evaluation path mandated by ``mode``.

    Parameters
    ----------
    mode:
        ``"auto"``, ``"incremental"`` or ``"batch"``.
    describe:
        Instance label used in the error message when ``"incremental"`` is
        demanded but unavailable.
    incremental:
        Factory returning the incremental path, or ``None`` when the
        problem has no incremental kernel.  Only called for ``"auto"`` and
        ``"incremental"``.
    batch:
        Factory for the batch (oracle) path.
    incremental_requirement:
        Human name of the missing kernel for the error message (e.g.
        ``"DeltaEvaluator"``).
    prefer_incremental:
        ``"auto"``'s verdict for this instance: solvers pass ``False`` when
        the measured crossover says the batch path wins at this instance
        size (see ``AdaptiveSearchConfig.evaluation``).  ``"incremental"``
        and ``"batch"`` ignore it — explicit modes are never second-guessed.
    """
    validate_evaluation_mode(mode)
    if mode == "batch":
        return batch()
    if mode == "auto" and not prefer_incremental:
        # Don't even build the incremental kernel (that can be the costly
        # part at the small sizes where the batch path wins).
        return batch()
    path = incremental()
    if path is None:
        if mode == "incremental":
            raise ValueError(
                f"{describe} provides no {incremental_requirement}; "
                "use evaluation='auto' or 'batch'"
            )
        return batch()
    return path


class IncrementalState:
    """Mutable incremental-evaluation state bound to one configuration.

    Subclasses add the configuration itself and the counters the evaluator
    maintains; the base class only fixes the one attribute every consumer
    relies on:

    Attributes
    ----------
    cost:
        The *exact* global error of the attached configuration (number of
        violated constraints / unsatisfied clauses).  Kept in exact
        arithmetic so it is bit-identical to the batch oracle's value.
    """

    cost: int | float


class IncrementalEvaluator(abc.ABC):
    """Attach/commit/reset lifecycle shared by every incremental kernel.

    An evaluator is immutable per problem instance; all mutable run state
    lives in the :class:`IncrementalState` it attaches, so one evaluator can
    serve many concurrent runs.  Commit operations are kernel-specific
    (``commit_swap`` for the permutation kernels, ``flip`` for the SAT
    clause state) and therefore live on the subclasses.
    """

    @abc.abstractmethod
    def attach(self, configuration: Any) -> IncrementalState:
        """Build the incremental state for a configuration (copies it)."""

    def reset(self, state: IncrementalState, configuration: Any) -> None:
        """Rebind ``state`` to a new configuration (restart / partial reset)."""
        state.__dict__.update(self.attach(configuration).__dict__)

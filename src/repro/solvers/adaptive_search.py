"""Adaptive Search: constraint-based local search (paper, Section 4.2).

Adaptive Search (Codognet & Diaz 2001) repairs a configuration iteratively:

1. compute the error of every constraint and project the errors onto the
   variables;
2. select the variable with the highest error (the "culprit") among the
   variables that are not marked tabu;
3. apply the min-conflict heuristic: move the culprit to the value (here:
   swap it with the position) that minimises the global error;
4. when no improving move exists, mark the culprit tabu for a few
   iterations; when too many variables are tabu, perform a partial *reset*
   (re-randomise a fraction of the variables);
5. optionally restart from scratch when an iteration budget since the last
   restart is exceeded.

This implementation operates on :class:`repro.csp.permutation.PermutationProblem`
instances (the encoding used by all of the paper's benchmarks), counts one
iteration per repair step, and reports the iteration count as the
machine-independent cost measure used throughout the evaluation.

Evaluation paths
----------------
The repair step needs the global error of every candidate swap of the
culprit.  Two interchangeable evaluation paths provide it:

* the *incremental* path consumes a problem-specific
  :class:`~repro.csp.permutation.DeltaEvaluator` (O(size) per iteration,
  the reference Adaptive Search design);
* the *batch* path rebuilds the ``(size, size)`` candidate batch and calls
  :meth:`~repro.csp.permutation.PermutationProblem.cost_many` — the
  cross-check oracle and the fallback for problems without a delta kernel.

Both paths produce bit-identical costs and variable errors, so a given seed
yields the same run (solved flag, iteration count, restarts, solution) on
either; the equivalence is pinned by parametrised tests and by the
recorded runs of ``tests/solvers/test_adaptive_search_pins.py``.  The
``evaluation`` setting (see :data:`repro.solvers.base.EVALUATION_MODES`)
picks the path; in ``"auto"`` mode the measured per-problem crossover
(``PermutationProblem.incremental_min_size``) decides whether the kernel
is expected to beat the very cheap vectorised batch cost at this instance
size.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.csp.permutation import DeltaEvaluator, PermutationProblem
from repro.solvers.base import LasVegasAlgorithm, RunResult, validate_evaluation_mode

__all__ = ["AdaptiveSearch", "AdaptiveSearchConfig"]


@dataclasses.dataclass(frozen=True)
class AdaptiveSearchConfig:
    """Tuning parameters of the Adaptive Search metaheuristic.

    Attributes
    ----------
    max_iterations:
        Hard per-run iteration budget; runs hitting it are reported as
        unsolved (censored observations).
    tabu_tenure:
        Number of iterations a culprit variable stays frozen after a failed
        repair attempt.
    reset_limit:
        Number of simultaneously tabu variables that triggers a partial
        reset.
    reset_fraction:
        Fraction of the variables re-randomised by a partial reset.
    restart_limit:
        Iterations since the last (re)start after which a full restart is
        forced; ``None`` disables forced restarts.
    plateau_probability:
        Probability of accepting a sideways (equal-cost) move instead of
        marking the culprit tabu.
    evaluation:
        Candidate-evaluation path: ``"auto"`` uses the problem's incremental
        :class:`~repro.csp.permutation.DeltaEvaluator` when it provides one
        *and* the instance is at or above the problem's measured
        batch/incremental crossover size
        (:attr:`~repro.csp.permutation.PermutationProblem.incremental_min_size`,
        e.g. n ≈ 96 for ALL-INTERVAL, whose two-numpy-call batch cost
        function wins on call overhead below that), falling back to the
        batched oracle otherwise; ``"incremental"`` requires a delta
        kernel; ``"batch"`` forces the oracle path.  The choice only
        affects speed — both paths yield bit-identical runs.
    """

    max_iterations: int = 100_000
    tabu_tenure: int = 10
    reset_limit: int = 5
    reset_fraction: float = 0.25
    restart_limit: int | None = None
    plateau_probability: float = 0.1
    evaluation: str = "auto"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tabu_tenure < 1:
            raise ValueError(f"tabu_tenure must be >= 1, got {self.tabu_tenure}")
        if self.reset_limit < 1:
            raise ValueError(f"reset_limit must be >= 1, got {self.reset_limit}")
        if not 0.0 < self.reset_fraction <= 1.0:
            raise ValueError(f"reset_fraction must be in (0, 1], got {self.reset_fraction}")
        if self.restart_limit is not None and self.restart_limit < 1:
            raise ValueError(f"restart_limit must be >= 1 or None, got {self.restart_limit}")
        if not 0.0 <= self.plateau_probability <= 1.0:
            raise ValueError(
                f"plateau_probability must be in [0, 1], got {self.plateau_probability}"
            )
        validate_evaluation_mode(self.evaluation)


class _BatchEvaluation:
    """Oracle path: full re-evaluation through ``cost_many`` batches."""

    def __init__(self, problem: PermutationProblem) -> None:
        self._problem = problem
        self.perm: np.ndarray | None = None
        self.cost: float = 0.0

    def reinit(self, perm: np.ndarray) -> None:
        self.perm = perm
        self.cost = self._problem.cost(perm)

    def variable_errors(self) -> np.ndarray:
        return self._problem.variable_errors(self.perm)

    def swap_costs(self, index: int) -> np.ndarray:
        return self._problem.swap_costs(self.perm, index)

    def apply_swap(self, i: int, j: int, new_cost: float) -> None:
        self.perm[i], self.perm[j] = self.perm[j], self.perm[i]
        self.cost = new_cost


class _IncrementalEvaluation:
    """Delta path: O(size) kernels over counters maintained across moves."""

    def __init__(self, evaluator: DeltaEvaluator) -> None:
        self._evaluator = evaluator
        self._state = None
        self.cost: float = 0.0

    @property
    def perm(self) -> np.ndarray:
        return self._state.perm

    def reinit(self, perm: np.ndarray) -> None:
        self._state = self._evaluator.attach(perm)
        self.cost = float(self._state.cost)

    def variable_errors(self) -> np.ndarray:
        return self._evaluator.variable_errors(self._state)

    def swap_costs(self, index: int) -> np.ndarray:
        return self.cost + self._evaluator.swap_deltas(self._state, index)

    def apply_swap(self, i: int, j: int, new_cost: float) -> None:
        self._evaluator.commit_swap(self._state, i, j)
        self.cost = float(self._state.cost)


class AdaptiveSearch(LasVegasAlgorithm):
    """Adaptive Search solver over a permutation problem.

    Parameters
    ----------
    problem:
        The permutation problem to solve.
    config:
        Metaheuristic parameters; sensible defaults are provided.
    """

    def __init__(
        self, problem: PermutationProblem, config: AdaptiveSearchConfig | None = None
    ) -> None:
        self.problem = problem
        self.config = config or AdaptiveSearchConfig()
        self.name = f"adaptive-search[{problem.describe()}]"

    # ------------------------------------------------------------------
    def _evaluation_path(self) -> _BatchEvaluation | _IncrementalEvaluation:
        problem = self.problem
        mode = self.config.evaluation
        crossover = problem.incremental_min_size
        below_crossover = crossover is not None and problem.size < crossover
        # Below the crossover "auto" takes the batch path without building
        # the kernel, which can be the costly part at those sizes.
        if mode == "batch" or (mode == "auto" and below_crossover):
            return _BatchEvaluation(problem)
        evaluator = problem.delta_evaluator()
        if evaluator is not None:
            return _IncrementalEvaluation(evaluator)
        if mode == "incremental":
            raise ValueError(
                f"{problem.describe()} provides no DeltaEvaluator; "
                "use evaluation='auto' or 'batch'"
            )
        return _BatchEvaluation(problem)

    def _partial_reset(self, perm: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Re-randomise a fraction of the positions (keeping a permutation)."""
        size = self.problem.size
        count = max(2, int(round(self.config.reset_fraction * size)))
        count = min(count, size)
        positions = rng.choice(size, size=count, replace=False)
        shuffled = rng.permutation(positions)
        new_perm = perm.copy()
        new_perm[positions] = perm[shuffled]
        return new_perm

    def _pick_argmax(self, values: np.ndarray, rng: np.random.Generator) -> int:
        """Index of the maximum value with uniform random tie-breaking."""
        maximum = values.max()
        candidates = np.flatnonzero(values >= maximum)
        return int(candidates[rng.integers(candidates.size)])

    def _pick_argmin(self, values: np.ndarray, rng: np.random.Generator) -> int:
        minimum = values.min()
        candidates = np.flatnonzero(values <= minimum)
        return int(candidates[rng.integers(candidates.size)])

    # ------------------------------------------------------------------
    def _run(self, rng: np.random.Generator) -> RunResult:
        problem = self.problem
        config = self.config
        size = problem.size

        path = self._evaluation_path()
        path.reinit(problem.random_configuration(rng))
        cost = path.cost
        tabu_until = np.zeros(size, dtype=np.int64)

        iterations = 0
        restarts = 0
        iterations_since_restart = 0

        while cost > 0.0 and iterations < config.max_iterations:
            iterations += 1
            iterations_since_restart += 1

            if (
                config.restart_limit is not None
                and iterations_since_restart > config.restart_limit
            ):
                path.reinit(problem.random_configuration(rng))
                cost = path.cost
                tabu_until[:] = 0
                restarts += 1
                iterations_since_restart = 0
                continue

            errors = path.variable_errors()
            # A variable tabooed at iteration t has tabu_until = t + tenure
            # and stays frozen for iterations t+1 .. t+tenure (exactly
            # `tenure` of them), hence the strict comparison.
            active = tabu_until < iterations
            if not active.any():
                # Everything is frozen: a reset is the only way forward.
                path.reinit(self._partial_reset(path.perm, rng))
                cost = path.cost
                tabu_until[:] = 0
                continue
            masked_errors = np.where(active, errors, -np.inf)
            culprit = self._pick_argmax(masked_errors, rng)

            swap_costs = path.swap_costs(culprit)
            swap_costs[culprit] = np.inf  # a no-op swap is not a move
            best_j = self._pick_argmin(swap_costs, rng)
            best_cost = float(swap_costs[best_j])

            if best_cost < cost or (
                best_cost == cost and rng.random() < config.plateau_probability
            ):
                path.apply_swap(culprit, best_j, best_cost)
                cost = path.cost
            else:
                tabu_until[culprit] = iterations + config.tabu_tenure
                n_tabu = int(np.count_nonzero(tabu_until > iterations))
                if n_tabu >= config.reset_limit:
                    path.reinit(self._partial_reset(path.perm, rng))
                    cost = path.cost
                    tabu_until[:] = 0

        solved = cost == 0.0
        return RunResult(
            solved=solved,
            iterations=iterations,
            runtime_seconds=0.0,  # filled in by LasVegasAlgorithm.run
            solution=path.perm.copy() if solved else None,
            restarts=restarts,
        )

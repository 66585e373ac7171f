"""Delta kernels vs the batch oracle: exactness under random swap walks.

The incremental-evaluation subsystem promises *bit-identical* costs to the
``cost_many`` batch path — not approximate agreement — because the solver's
tie-breaking and plateau decisions compare floats for equality.  These tests
pin that promise for all five benchmark kernels with fixed-seed randomised
trials (hypothesis-style: many random swap walks, deterministic seeds), plus
the generic ``swap_costs`` interface invariants from the issue checklist.
"""

import numpy as np
import pytest

from repro.csp.permutation import CSPPermutationAdapter, DeltaEvaluator
from repro.csp.problems import (
    AllIntervalProblem,
    CostasArrayProblem,
    LangfordProblem,
    MagicSquareProblem,
    NQueensProblem,
)

PROBLEMS = [
    pytest.param(lambda: NQueensProblem(8), id="n-queens-8"),
    pytest.param(lambda: CostasArrayProblem(7), id="costas-7"),
    pytest.param(lambda: AllIntervalProblem(9), id="all-interval-9"),
    pytest.param(lambda: MagicSquareProblem(4), id="magic-square-4"),
    pytest.param(lambda: LangfordProblem(4), id="langford-4"),
]

#: Small sizes stress the boundary / adjacency special cases of the kernels.
SMALL_PROBLEMS = [
    pytest.param(lambda: NQueensProblem(4), id="n-queens-4"),
    pytest.param(lambda: CostasArrayProblem(3), id="costas-3"),
    pytest.param(lambda: AllIntervalProblem(3), id="all-interval-3"),
    pytest.param(lambda: MagicSquareProblem(3), id="magic-square-3"),
    pytest.param(lambda: LangfordProblem(3), id="langford-3"),
]


@pytest.mark.parametrize("factory", PROBLEMS)
class TestSwapCostInvariants:
    """Interface invariants of the batched swap_costs oracle itself."""

    def test_self_swap_is_current_cost(self, factory):
        problem = factory()
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = problem.random_configuration(rng)
            index = int(rng.integers(problem.size))
            costs = problem.swap_costs(perm, index)
            assert costs[index] == problem.cost(perm)

    def test_swap_symmetry(self, factory):
        """Swapping (i, j) and swapping (j, i) are the same move."""
        problem = factory()
        rng = np.random.default_rng(1)
        perm = problem.random_configuration(rng)
        for _ in range(10):
            i = int(rng.integers(problem.size))
            j = int(rng.integers(problem.size))
            assert problem.swap_costs(perm, i)[j] == problem.swap_costs(perm, j)[i]


@pytest.mark.parametrize("factory", PROBLEMS + SMALL_PROBLEMS)
class TestDeltaKernelExactness:
    def test_attach_cost_matches_oracle(self, factory):
        problem = factory()
        evaluator = problem.delta_evaluator()
        assert isinstance(evaluator, DeltaEvaluator)
        rng = np.random.default_rng(2)
        for _ in range(5):
            perm = problem.random_configuration(rng)
            state = evaluator.attach(perm)
            assert float(state.cost) == problem.cost(perm)
            # attach copies: mutating the input must not corrupt the state
            perm[0] = perm[0]
            assert state.perm is not perm

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_swap_walk_stays_bit_identical(self, factory, seed):
        """Random walk of committed swaps; at every step the deltas, the
        maintained cost and the variable errors must equal the batch oracle
        exactly (no tolerance)."""
        problem = factory()
        evaluator = problem.delta_evaluator()
        rng = np.random.default_rng(seed)
        state = evaluator.attach(problem.random_configuration(rng))
        for step in range(40):
            index = int(rng.integers(problem.size))
            deltas = evaluator.swap_deltas(state, index)
            assert deltas[index] == 0.0
            oracle = problem.swap_costs(state.perm, index)
            np.testing.assert_array_equal(
                float(state.cost) + deltas,
                oracle,
                err_msg=f"{problem.describe()} seed={seed} step={step} index={index}",
            )
            np.testing.assert_array_equal(
                evaluator.variable_errors(state),
                problem.variable_errors(state.perm),
            )
            j = int(rng.integers(problem.size))
            evaluator.commit_swap(state, index, j)
            assert float(state.cost) == problem.cost(state.perm)
            assert problem.check_permutation(state.perm)

    def test_evaluator_is_cached_per_problem(self, factory):
        problem = factory()
        assert problem.delta_evaluator() is problem.delta_evaluator()


class TestFallback:
    def test_csp_adapter_has_no_delta_evaluator(self):
        direct = AllIntervalProblem(5)
        adapter = CSPPermutationAdapter(direct.to_csp(), values=np.arange(5))
        assert adapter.delta_evaluator() is None

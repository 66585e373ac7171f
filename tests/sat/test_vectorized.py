"""Exactness of the lockstep kernel against the scalar WalkSAT oracle.

Two layers of pinning:

* End-to-end bit-identity: for every (instance family, restart schedule,
  batch width K) combination, ``run_lockstep`` must return exactly the
  ``RunResult`` sequence of the scalar incremental solver — same
  ``solved``/``iterations``/``restarts``/``seed`` and the same solution
  bits.  This is the contract that lets the engine's lockstep backend
  claim backend-invariance without re-proving determinism.
* State-level bookkeeping: a hypothesis random walk of flips and restarts
  over :class:`LockstepClauseState` must keep every walk's counts, break/
  make scores and — crucially — the *internal ordering* of the maintained
  unsatisfied set equal to the scalar :class:`IncrementalClausePath`'s, because
  the clause pick consumes an RNG rank into exactly that ordering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    CNFFormula,
    IncrementalClausePath,
    LockstepEvaluator,
    load_bundled_instance,
    random_ksat,
    random_planted_ksat,
)
from repro.sat.vectorized import LOCKSTEP_POLICIES, restart_cutoff, run_lockstep
from repro.solvers.walksat import WalkSAT, WalkSATConfig

# -- instance families of the bit-identity matrix ------------------------

_INSTANCES = {
    "planted": lambda: random_planted_ksat(30, 126, rng=np.random.default_rng(5))[0],
    "uniform": lambda: random_ksat(25, 105, k=3, rng=np.random.default_rng(9)),
    "dimacs": lambda: load_bundled_instance("uf20-91-s1"),
}

_RESTARTS = {
    "norestart": dict(restart_after=None),
    "fixed": dict(restart_after=60, restart_schedule="fixed"),
    "luby": dict(restart_after=40, restart_schedule="luby"),
}


def _compare(formula: CNFFormula, config: WalkSATConfig, seeds: list[int]) -> None:
    solver = WalkSAT(formula, config)
    scalar = [solver.run(seed) for seed in seeds]
    lockstep = run_lockstep(formula, config, seeds)
    assert len(lockstep) == len(scalar)
    for seed, expect, got in zip(seeds, scalar, lockstep):
        assert (got.solved, got.iterations, got.restarts, got.seed) == (
            expect.solved,
            expect.iterations,
            expect.restarts,
            expect.seed,
        ), f"seed {seed} diverged under {config.policy}/{config.restart_schedule}"
        if expect.solved:
            np.testing.assert_array_equal(got.solution, expect.solution)
            assert formula.is_satisfied(got.solution)
        else:
            assert got.solution is None


class TestLockstepBitIdentity:
    """run_lockstep == scalar WalkSAT, walk by walk, bit for bit."""

    @pytest.mark.parametrize("restarts", sorted(_RESTARTS), ids=sorted(_RESTARTS))
    @pytest.mark.parametrize("family", sorted(_INSTANCES), ids=sorted(_INSTANCES))
    @pytest.mark.parametrize("n_walks", [1, 3, 64])
    def test_matches_scalar_walksat(self, family, restarts, n_walks):
        formula = _INSTANCES[family]()
        config = WalkSATConfig(max_flips=400, **_RESTARTS[restarts])
        _compare(formula, config, list(range(n_walks)))

    @pytest.mark.parametrize("restarts", ["norestart", "luby"])
    def test_adaptive_policy_matches_scalar(self, restarts):
        formula = _INSTANCES["planted"]()
        config = WalkSATConfig(max_flips=400, policy="adaptive", **_RESTARTS[restarts])
        _compare(formula, config, list(range(16)))

    def test_nonconsecutive_and_large_seeds(self):
        formula = _INSTANCES["uniform"]()
        config = WalkSATConfig(max_flips=300)
        _compare(formula, config, [0, 2**31 - 1, 12345, 7, 7])

    def test_mixed_clause_widths(self):
        # Non-uniform clause widths exercise the padded selection masks.
        formula = CNFFormula(
            6, [(1, -2), (2, 3, -4), (-1, 5, 6, -3), (4,), (-5, -6), (1, 2, 3)]
        )
        _compare(formula, WalkSATConfig(max_flips=200), list(range(12)))
        _compare(
            formula,
            WalkSATConfig(max_flips=200, restart_after=15, restart_schedule="luby"),
            list(range(12)),
        )

    def test_unsatisfiable_runs_are_censored_identically(self):
        formula = CNFFormula(1, [(1,), (-1,)])
        config = WalkSATConfig(max_flips=60, restart_after=4, restart_schedule="luby")
        _compare(formula, config, list(range(6)))

    def test_empty_seed_list(self):
        assert run_lockstep(_INSTANCES["planted"](), WalkSATConfig(), []) == []

    def test_rejects_unvectorised_policies(self):
        formula = _INSTANCES["planted"]()
        with pytest.raises(ValueError, match="lockstep kernel supports"):
            run_lockstep(formula, WalkSATConfig(policy="novelty+"), [0])

    def test_solver_entry_point_routes_and_falls_back(self):
        formula = _INSTANCES["planted"]()
        fast = WalkSAT(formula, WalkSATConfig(max_flips=400))
        assert fast.lockstep_supported()
        slow = WalkSAT(formula, WalkSATConfig(max_flips=400, policy="novelty+"))
        assert not slow.lockstep_supported()
        assert "novelty+" not in LOCKSTEP_POLICIES
        # The fallback still honours the contract: same results as run().
        seeds = [3, 1, 4]
        for solver in (fast, slow):
            batch = solver.run_lockstep(seeds)
            for seed, got in zip(seeds, batch):
                expect = solver.run(seed)
                assert (got.solved, got.iterations, got.seed) == (
                    expect.solved,
                    expect.iterations,
                    expect.seed,
                )


class TestRestartCutoff:
    def test_none_disables_restarts(self):
        assert restart_cutoff(None, "fixed", 0) is None
        assert restart_cutoff(None, "luby", 3) is None

    def test_fixed_is_constant(self):
        assert [restart_cutoff(50, "fixed", k) for k in range(5)] == [50] * 5

    def test_luby_scales_by_the_universal_sequence(self):
        # Luby terms: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, ...
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]
        assert [restart_cutoff(40, "luby", k) for k in range(10)] == [
            40 * term for term in expected
        ]


# -- hypothesis: state bookkeeping pinned against ClauseEvaluator --------

_formulas = st.sampled_from(
    [
        random_ksat(12, 50, k=3, rng=np.random.default_rng(0)),
        random_planted_ksat(15, 63, rng=np.random.default_rng(1))[0],
        CNFFormula(4, [(1, 1), (1, -1), (-2, -2, 1), (3, -4), (2,)]),
    ]
)


@settings(max_examples=40, deadline=None)
@given(
    formula=_formulas,
    n_walks=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), st.booleans()),
        min_size=1,
        max_size=60,
    ),
)
def test_lockstep_state_matches_scalar_evaluator(formula, n_walks, seed, steps):
    """Random walk of flips/restarts: every maintained quantity — counts,
    break/make scores, and the unsatisfied set *in internal order* — must
    stay equal between LockstepClauseState and one IncrementalClausePath
    per walk driven through the identical edit sequence."""
    rng = np.random.default_rng(seed)
    evaluator = LockstepEvaluator(formula)
    assignments = np.stack([formula.random_assignment(rng) for _ in range(n_walks)])
    state = evaluator.attach(assignments)
    oracle = [IncrementalClausePath(formula) for _ in range(n_walks)]
    for walk, path in enumerate(oracle):
        path.reinit(assignments[walk].copy())

    def check() -> None:
        for walk in range(n_walks):
            np.testing.assert_array_equal(
                state.true_counts[walk, : formula.n_clauses], oracle[walk].true_counts
            )
            np.testing.assert_array_equal(
                state.assignment[walk], oracle[walk].assignment
            )
            assert state.unsat_list[walk] == oracle[walk].unsat_list
            assert state.n_unsat(walk) == oracle[walk].n_unsat
        walks = np.repeat(np.arange(n_walks), formula.n_variables)
        variables = np.tile(np.arange(formula.n_variables), n_walks)
        breaks = state.break_counts(walks, variables).reshape(n_walks, -1)
        makes = state.make_counts(walks, variables).reshape(n_walks, -1)
        for walk in range(n_walks):
            for variable in range(formula.n_variables):
                assert breaks[walk, variable] == oracle[walk].break_count(variable)
                assert makes[walk, variable] == oracle[walk].make_count(variable)

    check()
    for value, restart in steps:
        if restart:
            walk = value % n_walks
            fresh = formula.random_assignment(rng)
            state.reinit_walk(walk, fresh)
            oracle[walk].reinit(fresh.copy())
        else:
            # One batched flip of a (possibly repeated) variable per walk.
            variables = np.array(
                [(value + 7 * walk) % formula.n_variables for walk in range(n_walks)],
                dtype=np.int64,
            )
            state.flip(np.arange(n_walks), variables)
            for walk in range(n_walks):
                oracle[walk].flip(int(variables[walk]))
        check()

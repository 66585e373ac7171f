"""Exactness of the incremental clause state against the batch oracle.

Mirrors ``tests/csp/test_delta.py``: long random walks of flips and resets
(hypothesis-style, deterministic seeds) after which every maintained
quantity must equal its from-scratch recomputation — plus the ordering
invariant that makes the incremental and batch paths bit-identical inside
WalkSAT's hot loop.
"""

import numpy as np
import pytest

from repro.sat import (
    BatchClausePath,
    CNFFormula,
    IncrementalClausePath,
    random_ksat,
    random_planted_ksat,
)


def _random_formula(seed: int, n_variables: int = 20, n_clauses: int = 85) -> CNFFormula:
    return random_ksat(n_variables, n_clauses, k=3, rng=np.random.default_rng(seed))


def _multiset_formula(seed: int, n_variables: int = 20, n_clauses: int = 85) -> CNFFormula:
    """Widths 1-5 with variables drawn with replacement: a clause may hold
    a literal twice (duplicate) or both of a variable's literals (tautology)."""
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(n_clauses):
        width = int(rng.integers(1, 6))
        variables = rng.integers(1, n_variables + 1, size=width)
        signs = rng.integers(0, 2, size=width) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return CNFFormula(n_variables, clauses)


#: Formula families of the random-walk tests: distinct-variable 3-SAT and
#: the multiset family whose multiplicities the flat tables must count.
FORMULAS = {"3sat": _random_formula, "multiset": _multiset_formula}


def test_multiset_formulas_have_duplicates_and_tautologies():
    for seed in range(4):
        clauses = _multiset_formula(seed).clauses
        assert {len(clause) for clause in clauses} == {1, 2, 3, 4, 5}
        assert any(len(set(clause)) < len(clause) for clause in clauses)
        assert any(-lit in clause for clause in clauses for lit in clause)


class TestClauseEvaluatorExactness:
    @pytest.mark.parametrize("family", list(FORMULAS))
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_exact_after_random_walk(self, seed, family):
        formula = FORMULAS[family](seed)
        rng = np.random.default_rng(1000 + seed)
        path = IncrementalClausePath(formula)
        path.reinit(formula.random_assignment(rng))
        for step in range(200):
            variable = int(rng.integers(formula.n_variables))
            path.flip(variable)
            if step % 50 == 49:  # occasional reset, as restarts do
                path.reinit(formula.random_assignment(rng))
        np.testing.assert_array_equal(
            path.true_counts, formula.true_literal_counts(path.assignment)
        )
        assert sorted(path.unsat_list) == list(
            formula.unsatisfied_clauses(path.assignment)
        )
        assert path.n_unsat == formula.count_unsatisfied(path.assignment)

    @pytest.mark.parametrize("family", list(FORMULAS))
    @pytest.mark.parametrize("seed", range(3))
    def test_break_and_make_counts_match_oracle(self, seed, family):
        formula = FORMULAS[family](seed, n_variables=15, n_clauses=60)
        rng = np.random.default_rng(2000 + seed)
        path = IncrementalClausePath(formula)
        path.reinit(formula.random_assignment(rng))
        for _ in range(40):
            path.flip(int(rng.integers(formula.n_variables)))
            for variable in range(formula.n_variables):
                assert path.break_count(variable) == formula.break_count(
                    path.assignment, variable
                )
                assert path.make_count(variable) == formula.make_count(
                    path.assignment, variable
                )

    def test_duplicate_literals_and_tautologies(self):
        # (1 1), (1 -1), (-2 -2 1): duplicate and tautological clauses must
        # be counted per literal slot, exactly as true_literal_counts does.
        formula = CNFFormula(2, [(1, 1), (1, -1), (-2, -2, 1)])
        path = IncrementalClausePath(formula)
        for bits in ((False, False), (False, True), (True, False), (True, True)):
            assignment = np.array(bits)
            path.reinit(assignment)
            np.testing.assert_array_equal(
                path.true_counts, formula.true_literal_counts(assignment)
            )
            for variable in range(2):
                assert path.break_count(variable) == formula.break_count(
                    assignment, variable
                )
                assert path.make_count(variable) == formula.make_count(
                    assignment, variable
                )
        # ... and stay exact across flips.
        path.reinit(np.array([False, False]))
        for variable in (0, 1, 0, 0, 1):
            path.flip(variable)
            np.testing.assert_array_equal(
                path.true_counts, formula.true_literal_counts(path.assignment)
            )

    def test_evaluator_is_memoised_and_unpickled(self):
        import pickle

        formula = _random_formula(7)
        assert formula.clause_evaluator() is formula.clause_evaluator()
        clone = pickle.loads(pickle.dumps(formula))
        # The memo is derived state: dropped from pickles, rebuilt on demand.
        assert getattr(clone, "_clause_evaluator", None) is None
        path = IncrementalClausePath(clone)
        path.reinit(np.zeros(formula.n_variables, dtype=bool))
        assert path.break_count(0) == formula.break_count(
            np.zeros(formula.n_variables, dtype=bool), 0
        )

    def test_pickle_unchanged_by_evaluator_memo(self):
        import pickle

        formula = _random_formula(8)
        before = pickle.dumps(formula)
        formula.clause_evaluator()  # touch the memo
        assert pickle.dumps(formula) == before  # engine-cache fingerprints stable


class TestPathOrderingInvariant:
    """Both paths keep bit-identical unsatisfied-set orderings."""

    @pytest.mark.parametrize("family", ["planted", "multiset"])
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_internal_order_under_identical_flips(self, seed, family):
        if family == "planted":
            formula, _ = random_planted_ksat(18, 76, rng=np.random.default_rng(seed))
        else:
            formula = _multiset_formula(seed, n_variables=18, n_clauses=76)
        rng = np.random.default_rng(3000 + seed)
        incremental = IncrementalClausePath(formula)
        batch = BatchClausePath(formula)
        assignment = formula.random_assignment(rng)
        incremental.reinit(assignment)
        batch.reinit(assignment)
        assert incremental.n_unsat == batch.n_unsat
        for step in range(150):
            for rank in range(incremental.n_unsat):
                assert incremental.unsat_clause(rank) == batch.unsat_clause(rank)
            variable = int(rng.integers(formula.n_variables))
            assert incremental.break_count(variable) == batch.break_count(variable)
            incremental.flip(variable)
            batch.flip(variable)
            assert incremental.n_unsat == batch.n_unsat
            if step % 60 == 59:
                fresh = formula.random_assignment(rng)
                incremental.reinit(fresh)
                batch.reinit(fresh)

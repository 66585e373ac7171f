"""CNF substrate, random k-SAT generators and WalkSAT."""

import numpy as np
import pytest

from repro.sat import CNFFormula, random_ksat, random_planted_ksat
from repro.solvers.walksat import WalkSAT, WalkSATConfig


class TestCNFFormula:
    def test_construction_and_counts(self):
        formula = CNFFormula(3, [(1, -2), (2, 3), (-1, -3)])
        assert formula.n_variables == 3
        assert formula.n_clauses == 3

    def test_rejects_bad_clauses(self):
        with pytest.raises(ValueError):
            CNFFormula(2, [(0,)])
        with pytest.raises(ValueError):
            CNFFormula(2, [(3,)])
        with pytest.raises(ValueError):
            CNFFormula(2, [()])
        with pytest.raises(ValueError):
            CNFFormula(2, [])
        with pytest.raises(ValueError):
            CNFFormula(0, [(1,)])

    def test_satisfaction_checks(self):
        formula = CNFFormula(2, [(1, 2), (-1, 2)])
        assert formula.is_satisfied(np.array([True, True]))
        assert formula.is_satisfied(np.array([False, True]))
        assert not formula.is_satisfied(np.array([True, False]))
        assert formula.count_unsatisfied(np.array([False, False])) == 1
        np.testing.assert_array_equal(
            formula.unsatisfied_clauses(np.array([False, False])), [0]
        )

    def test_break_count(self):
        formula = CNFFormula(2, [(1,), (1, 2)])
        assignment = np.array([True, False])
        # Flipping variable 0 breaks both clauses (clause 2 has no other true literal).
        assert formula.break_count(assignment, 0) == 2
        assert formula.break_count(assignment, 1) == 0
        with pytest.raises(IndexError):
            formula.break_count(assignment, 5)

    def test_assignment_shape_validation(self):
        formula = CNFFormula(3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            formula.is_satisfied(np.array([True, False]))

    def test_dimacs_round_trip(self):
        formula = CNFFormula(3, [(1, -2, 3), (-1, 2)])
        text = formula.to_dimacs()
        parsed = CNFFormula.from_dimacs(text)
        assert parsed.n_variables == 3
        assert parsed.clauses == formula.clauses

    def test_from_dimacs_with_comments(self):
        text = "c a comment\np cnf 2 2\n1 -2 0\n2 0\n"
        formula = CNFFormula.from_dimacs(text)
        assert formula.n_clauses == 2

    def test_from_dimacs_missing_header(self):
        with pytest.raises(ValueError):
            CNFFormula.from_dimacs("1 2 0\n")


class TestGenerators:
    def test_random_ksat_shape(self, rng):
        formula = random_ksat(20, 80, k=3, rng=rng)
        assert formula.n_variables == 20
        assert formula.n_clauses == 80
        assert all(len(set(abs(l) for l in clause)) == 3 for clause in formula.clauses)

    def test_planted_instance_is_satisfiable(self, rng):
        formula, planted = random_planted_ksat(30, 120, rng=rng)
        assert formula.is_satisfied(planted)

    def test_generator_argument_validation(self):
        with pytest.raises(ValueError):
            random_ksat(2, 5, k=3)
        with pytest.raises(ValueError):
            random_planted_ksat(10, 0)

    def test_reproducibility_with_seeded_rng(self):
        a = random_ksat(15, 40, rng=np.random.default_rng(3))
        b = random_ksat(15, 40, rng=np.random.default_rng(3))
        assert a.clauses == b.clauses


class TestWalkSAT:
    def test_solves_planted_instances(self, rng):
        formula, _ = random_planted_ksat(40, 150, rng=rng)
        solver = WalkSAT(formula, WalkSATConfig(max_flips=200_000))
        for seed in range(3):
            result = solver.run(seed)
            assert result.solved
            assert formula.is_satisfied(result.solution)

    def test_flip_budget_censors(self, rng):
        formula, _ = random_planted_ksat(50, 210, rng=rng)
        solver = WalkSAT(formula, WalkSATConfig(max_flips=1))
        result = solver.run(0)
        assert result.iterations <= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkSATConfig(max_flips=0)
        with pytest.raises(ValueError):
            WalkSATConfig(noise=1.5)
        with pytest.raises(ValueError):
            WalkSATConfig(restart_after=0)
        with pytest.raises(ValueError):
            WalkSATConfig(evaluation="vectorised")
        with pytest.raises(ValueError):
            WalkSATConfig(restart_schedule="geometric")

    def test_restarts_are_counted(self, rng):
        formula, _ = random_planted_ksat(40, 160, rng=rng)
        solver = WalkSAT(formula, WalkSATConfig(max_flips=5000, restart_after=50))
        result = solver.run(2)
        assert result.restarts >= 0  # restarts may or may not trigger before solving

    def test_runtime_is_a_random_variable(self, rng):
        formula, _ = random_planted_ksat(40, 150, rng=rng)
        solver = WalkSAT(formula)
        flips = {solver.run(seed).iterations for seed in range(8)}
        assert len(flips) > 1

    def test_reproducibility(self, rng):
        formula, _ = random_planted_ksat(30, 110, rng=rng)
        solver = WalkSAT(formula)
        assert solver.run(5).iterations == solver.run(5).iterations


_EQUIVALENCE_INSTANCES = [
    pytest.param(30, 126, None, id="3sat-30@4.2"),
    pytest.param(40, 168, None, id="3sat-40@4.2"),
    pytest.param(40, 168, 80, id="3sat-40@4.2-restarts"),
    pytest.param(60, 240, 300, id="3sat-60@4.0-restarts"),
]


class TestEvaluationPathEquivalence:
    """ISSUE-3 invariant: a given seed yields bit-identical runs (same flip
    sequence, same RNG draws, same tie-breaking) on the incremental clause
    state and the batch (full re-evaluation) oracle — including runs with
    restarts."""

    @pytest.mark.parametrize("n_variables, n_clauses, restart_after", _EQUIVALENCE_INSTANCES)
    def test_incremental_matches_batch_bitwise(self, n_variables, n_clauses, restart_after):
        formula, _ = random_planted_ksat(
            n_variables, n_clauses, rng=np.random.default_rng(n_variables)
        )
        for seed in range(4):
            results = {}
            for mode in ("batch", "incremental"):
                config = WalkSATConfig(
                    max_flips=30_000, restart_after=restart_after, evaluation=mode
                )
                results[mode] = WalkSAT(formula, config).run(seed)
            batch, incremental = results["batch"], results["incremental"]
            assert (batch.solved, batch.iterations, batch.restarts) == (
                incremental.solved,
                incremental.iterations,
                incremental.restarts,
            ), f"seed {seed} diverged on {n_variables}v/{n_clauses}c"
            if batch.solved:
                np.testing.assert_array_equal(batch.solution, incremental.solution)

    def test_auto_mode_uses_the_incremental_path(self):
        from repro.sat.incremental import BatchClausePath, IncrementalClausePath

        formula, _ = random_planted_ksat(20, 84, rng=np.random.default_rng(0))
        # BatchClausePath subclasses IncrementalClausePath: compare exact types.
        auto = WalkSAT(formula, WalkSATConfig(evaluation="auto"))._clause_path()
        batch = WalkSAT(formula, WalkSATConfig(evaluation="batch"))._clause_path()
        assert type(auto) is IncrementalClausePath
        assert type(batch) is BatchClausePath

    def test_auto_matches_explicit_incremental(self):
        formula, _ = random_planted_ksat(30, 126, rng=np.random.default_rng(1))
        auto = WalkSAT(formula, WalkSATConfig(evaluation="auto")).run(3)
        incremental = WalkSAT(formula, WalkSATConfig(evaluation="incremental")).run(3)
        assert auto.iterations == incremental.iterations


class _FixedInitFormula(CNFFormula):
    """Formula whose initial random assignment is pinned (for policy tests)."""

    def __init__(self, n_variables, clauses, init):
        super().__init__(n_variables, clauses)
        self._init = np.array(init, dtype=bool)

    def random_assignment(self, rng):
        return self._init.copy()


class _RecordingWalkSAT(WalkSAT):
    """WalkSAT that records every flipped variable (wraps the clause path)."""

    def __init__(self, formula, config):
        super().__init__(formula, config)
        self.flipped: list[int] = []

    def _clause_path(self):
        path = super()._clause_path()
        original_flip = path.flip
        record = self.flipped

        class _Spy:
            def __getattr__(self, attr):
                return getattr(path, attr)

            def flip(self, variable):
                record.append(variable)
                original_flip(variable)

        return _Spy()


class TestWalkSATSemantics:
    """Satellite coverage: the documented behaviour of the SKC policies."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_planted_ksat_is_always_eventually_solved(self, k):
        for seed in range(4):
            formula, planted = random_planted_ksat(
                25, 100, k=k, rng=np.random.default_rng(100 + seed)
            )
            result = WalkSAT(formula, WalkSATConfig(max_flips=500_000)).run(seed)
            assert result.solved
            assert formula.is_satisfied(result.solution)

    @pytest.mark.parametrize(
        "max_flips, restart_after, expected_restarts",
        [(10, 3, 3), (10, 5, 1), (9, 3, 2), (12, 4, 2), (4, 5, 0)],
    )
    def test_restart_after_resets_exactly_at_the_configured_flip_count(
        self, max_flips, restart_after, expected_restarts
    ):
        # (x1) ∧ (¬x1) is unsatisfiable: the run always exhausts max_flips,
        # re-randomising after every `restart_after` flips — the restart at
        # the budget boundary itself never happens (the run is over).
        formula = CNFFormula(1, [(1,), (-1,)])
        config = WalkSATConfig(max_flips=max_flips, restart_after=restart_after)
        result = WalkSAT(formula, config).run(0)
        assert not result.solved
        assert result.iterations == max_flips
        assert result.restarts == expected_restarts

    def test_luby_schedule_restarts_at_the_scaled_luby_cutoffs(self):
        # Same unsatisfiable formula: with restart_after=4 under the Luby
        # schedule the segment cutoffs are 4*(1,1,2,1,1,2,4,1,1,...), i.e.
        # restarts at cumulative flips 4, 8, 16, 20, 24, 32, 48, 52, 56 —
        # nine of them within a 60-flip budget (the next, at 64, is past
        # the budget).  A fixed schedule would restart every 4 flips (14
        # restarts), so this pins the cadence, not just the count.
        formula = CNFFormula(1, [(1,), (-1,)])
        config = WalkSATConfig(max_flips=60, restart_after=4, restart_schedule="luby")
        result = WalkSAT(formula, config).run(0)
        assert not result.solved
        assert result.iterations == 60
        assert result.restarts == 9

    @pytest.mark.parametrize("schedule", ["fixed", "luby"])
    def test_restart_schedule_without_restart_after_is_inert(self, schedule):
        formula = CNFFormula(1, [(1,), (-1,)])
        config = WalkSATConfig(max_flips=20, restart_schedule=schedule)
        result = WalkSAT(formula, config).run(0)
        assert result.restarts == 0
        assert result.iterations == 20

    # Crafted state (init FFF): the only unsatisfied clause is (1 2);
    # break(x0) = 2 (breaks ¬1 and (¬1 3)), break(x1) = 1 (breaks ¬2),
    # no free variable — so the walk must take the noise branch.
    _POLICY_CLAUSES = [(1, 2), (-1,), (-1, 3), (-2,)]

    def _first_flip(self, noise, seed):
        formula = _FixedInitFormula(3, self._POLICY_CLAUSES, [False, False, False])
        solver = _RecordingWalkSAT(formula, WalkSATConfig(max_flips=1, noise=noise))
        solver.run(seed)
        assert len(solver.flipped) == 1
        return solver.flipped[0]

    def test_noise_zero_is_deterministic_greedy(self):
        # noise=0 always flips the unique minimum-break variable (x1).
        assert {self._first_flip(0.0, seed) for seed in range(12)} == {1}

    def test_noise_one_is_a_pure_random_walk(self):
        # noise=1 flips a uniform variable of the clause: both appear.
        assert {self._first_flip(1.0, seed) for seed in range(30)} == {0, 1}

"""WalkSAT flip-policy family: equivalence, degenerate noise, adaptation."""

import numpy as np
import pytest

from repro.sat import CNFFormula, clause_count_for_ratio, random_ksat, random_planted_ksat
from repro.solvers.policies import (
    POLICIES,
    AdaptiveNoisePolicy,
    NoveltyPlusPolicy,
    NoveltyPolicy,
    WalkSATPolicy,
    make_policy,
    validate_policy,
)
from repro.solvers.walksat import WalkSAT, WalkSATConfig


def _policy_config(policy, **kwargs):
    return WalkSATConfig(policy=policy, **kwargs)


class TestRegistry:
    def test_known_policies(self):
        assert POLICIES == ("walksat", "novelty", "novelty+", "adaptive")
        for name in POLICIES:
            validate_policy(name)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            validate_policy("gsat")
        with pytest.raises(ValueError):
            WalkSATConfig(policy="gsat")

    def test_make_policy_builds_the_right_classes(self):
        kwargs = dict(
            noise=0.5,
            walk_probability=0.01,
            adaptive_theta=1 / 6,
            adaptive_phi=0.2,
            n_variables=10,
            n_clauses=42,
        )
        assert isinstance(make_policy("walksat", **kwargs), WalkSATPolicy)
        novelty = make_policy("novelty", **kwargs)
        assert isinstance(novelty, NoveltyPolicy)
        assert not isinstance(novelty, NoveltyPlusPolicy)
        assert isinstance(make_policy("novelty+", **kwargs), NoveltyPlusPolicy)
        assert isinstance(make_policy("adaptive", **kwargs), AdaptiveNoisePolicy)

    def test_config_validation_of_policy_parameters(self):
        with pytest.raises(ValueError):
            WalkSATConfig(walk_probability=1.5)
        with pytest.raises(ValueError):
            WalkSATConfig(adaptive_theta=0.0)
        with pytest.raises(ValueError):
            WalkSATConfig(adaptive_phi=-0.1)

    def test_solver_name_carries_the_policy(self):
        formula, _ = random_planted_ksat(10, 42, rng=np.random.default_rng(0))
        assert WalkSAT(formula).name.endswith("c]")
        assert WalkSAT(formula, _policy_config("novelty")).name.endswith("/novelty")


_EQUIVALENCE_INSTANCES = [
    pytest.param("planted", 30, None, id="planted-30"),
    pytest.param("planted", 40, 80, id="planted-40-restarts"),
    pytest.param("uniform", 30, None, id="uniform-30"),
    pytest.param("uniform", 40, 120, id="uniform-40-restarts"),
]


def _make_formula(family, n_variables):
    rng = np.random.default_rng(n_variables)
    if family == "planted":
        formula, _ = random_planted_ksat(n_variables, int(round(4.2 * n_variables)), rng=rng)
        return formula
    return random_ksat(n_variables, clause_count_for_ratio(n_variables, 4.2), rng=rng)


class TestPolicyEvaluationPathEquivalence:
    """ISSUE-5 invariant: every policy yields bit-identical runs (same flip
    sequence, same RNG draws, same restart cadence) on the incremental
    clause state and the batch oracle — the ISSUE-3 contract extended to
    the whole variant family."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("family, n_variables, restart_after", _EQUIVALENCE_INSTANCES)
    def test_incremental_matches_batch_bitwise(self, policy, family, n_variables, restart_after):
        formula = _make_formula(family, n_variables)
        for seed in range(3):
            results = {}
            for mode in ("batch", "incremental"):
                config = WalkSATConfig(
                    max_flips=20_000,
                    policy=policy,
                    restart_after=restart_after,
                    evaluation=mode,
                )
                results[mode] = WalkSAT(formula, config).run(seed)
            batch, incremental = results["batch"], results["incremental"]
            assert (batch.solved, batch.iterations, batch.restarts) == (
                incremental.solved,
                incremental.iterations,
                incremental.restarts,
            ), f"{policy} diverged on seed {seed} ({family} n={n_variables})"
            if batch.solved:
                np.testing.assert_array_equal(batch.solution, incremental.solution)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies_are_deterministic_per_seed(self, policy):
        formula = _make_formula("planted", 30)
        config = _policy_config(policy, max_flips=20_000)
        solver = WalkSAT(formula, config)
        assert solver.run(7).iterations == solver.run(7).iterations

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_solves_planted_instances(self, policy):
        formula = _make_formula("planted", 25)
        config = _policy_config(policy, max_flips=500_000)
        for seed in range(3):
            result = WalkSAT(formula, config).run(seed)
            assert result.solved
            assert formula.is_satisfied(result.solution)


# ----------------------------------------------------------------------
# Degenerate-noise semantics on a crafted state.
#
# Formula over x0..x2, initial assignment FFF (pinned): the only unsatisfied
# clause is (1 2); break(x0) = 2, break(x1) = 1, no free variable, and
# make(x0) = make(x1) = 1, so Novelty scores are x0: 2-1 = 1, x1: 1-1 = 0 —
# x1 is strictly best under both SKC break counts and Novelty scores.
# ----------------------------------------------------------------------
_CRAFTED_CLAUSES = [(1, 2), (-1,), (-1, 3), (-2,)]


class _FixedInitFormula(CNFFormula):
    def __init__(self, n_variables, clauses, init):
        super().__init__(n_variables, clauses)
        self._init = np.array(init, dtype=bool)

    def random_assignment(self, rng):
        return self._init.copy()


def _first_flips(config, seeds=range(12)):
    formula = _FixedInitFormula(3, _CRAFTED_CLAUSES, [False, False, False])
    flips = set()
    for seed in seeds:
        solver = WalkSAT(formula, config)
        path_holder = {}
        original = solver._clause_path

        def capture():
            path = original()
            original_flip = path.flip

            class _Spy:
                def __getattr__(self, attr):
                    return getattr(path, attr)

                def flip(self, variable):
                    path_holder.setdefault("flips", []).append(variable)
                    original_flip(variable)

            return _Spy()

        solver._clause_path = capture
        solver.run(seed)
        flips.add(path_holder["flips"][0])
    return flips


class TestDegenerateNoise:
    def test_novelty_noise_zero_is_deterministic_best_score(self):
        config = _policy_config("novelty", max_flips=1, noise=0.0)
        assert _first_flips(config) == {1}

    def test_novelty_noise_one_on_fresh_run_still_picks_best(self):
        # No variable has been flipped yet, so the "most recently flipped"
        # exception never triggers on the first flip: best is chosen even
        # at noise=1.
        config = _policy_config("novelty", max_flips=1, noise=1.0)
        assert _first_flips(config) == {1}

    def test_novelty_noise_one_avoids_the_youngest_variable(self):
        # Two flips, noise=1: the first flip is x1 (best); x1 is then the
        # youngest.  If the same clause is picked again with x1 still best,
        # Novelty at noise=1 must take the second best instead.
        formula = _FixedInitFormula(3, _CRAFTED_CLAUSES, [False, False, False])
        from repro.sat.incremental import IncrementalClausePath

        policy = NoveltyPolicy(noise=1.0, n_variables=3)
        path = IncrementalClausePath(formula)
        path.reinit(formula.random_assignment(np.random.default_rng(0)))
        policy.start(path)
        rng = np.random.default_rng(0)
        first = policy.pick(path, [0, 1], rng)
        assert first == 1
        policy.notify_flip(1, 1, path)
        # Undo nothing: just re-ask on the same clause state where x1 is
        # still ranked best — it is now the youngest, so x0 must be picked.
        assert policy.pick(path, [0, 1], rng) == 0

    def test_novelty_plus_walk_probability_one_is_a_pure_random_walk(self):
        config = _policy_config("novelty+", max_flips=1, noise=0.0, walk_probability=1.0)
        assert _first_flips(config, seeds=range(30)) == {0, 1}

    def test_novelty_plus_walk_probability_zero_matches_novelty(self):
        formula = _make_formula("planted", 30)
        novelty = WalkSAT(formula, _policy_config("novelty", max_flips=20_000, noise=0.4))
        plus = WalkSAT(
            formula,
            _policy_config("novelty+", max_flips=20_000, noise=0.4, walk_probability=0.0),
        )
        # walk_probability=0 still consumes the walk RNG draw, so the runs
        # are not flip-identical — but both must behave like proper Novelty
        # runs and solve the instance.
        assert novelty.run(3).solved and plus.run(3).solved

    def test_adaptive_initial_noise_zero_is_deterministic_greedy(self):
        config = _policy_config("adaptive", max_flips=1, noise=0.0)
        assert _first_flips(config) == {1}

    def test_adaptive_initial_noise_one_is_a_pure_random_walk(self):
        config = _policy_config("adaptive", max_flips=1, noise=1.0)
        assert _first_flips(config, seeds=range(30)) == {0, 1}

    def test_walksat_noise_degenerates_unchanged(self):
        assert _first_flips(_policy_config("walksat", max_flips=1, noise=0.0)) == {1}
        assert _first_flips(
            _policy_config("walksat", max_flips=1, noise=1.0), seeds=range(30)
        ) == {0, 1}


class TestAdaptiveNoiseDynamics:
    def _unsat_formula(self):
        # (x1) ∧ (¬x1): never satisfiable, so the search stagnates forever
        # and the noise must ratchet up.
        return CNFFormula(1, [(1,), (-1,)])

    def test_noise_increases_under_stagnation(self):
        formula = self._unsat_formula()
        solver = WalkSAT(
            formula, _policy_config("adaptive", max_flips=500, noise=0.0, adaptive_phi=0.2)
        )
        policy = solver._make_policy()
        from repro.sat.incremental import IncrementalClausePath

        path = IncrementalClausePath(formula)
        rng = np.random.default_rng(0)
        path.reinit(formula.random_assignment(rng))
        policy.start(path)
        assert policy.noise == 0.0
        for flip_number in range(1, 100):
            variable = policy.pick(path, [0], rng)
            path.flip(variable)
            policy.notify_flip(variable, flip_number, path)
        assert policy.noise > 0.0

    def test_noise_decreases_on_improvement(self):
        policy = AdaptiveNoisePolicy(initial_noise=0.8, n_clauses=60, theta=1 / 6, phi=0.2)

        class _FakePath:
            n_unsat = 10

        path = _FakePath()
        policy.start(path)
        path.n_unsat = 9  # improvement
        policy.notify_flip(0, 1, path)
        assert policy.noise == pytest.approx(0.8 - 0.8 * 0.1)

    def test_noise_stays_in_unit_interval(self):
        policy = AdaptiveNoisePolicy(initial_noise=0.0, n_clauses=6, theta=1 / 6, phi=0.2)

        class _FakePath:
            n_unsat = 5

        path = _FakePath()
        policy.start(path)
        for flip_number in range(1, 2000):
            policy.notify_flip(0, flip_number, path)  # eternal stagnation
        assert 0.0 <= policy.noise <= 1.0
        assert policy.noise > 0.9  # ratcheted up, asymptotically toward 1

    def test_learned_noise_survives_restarts(self):
        policy = AdaptiveNoisePolicy(initial_noise=0.0, n_clauses=6, theta=1 / 6, phi=0.2)

        class _FakePath:
            n_unsat = 5

        path = _FakePath()
        policy.start(path)
        for flip_number in range(1, 50):
            policy.notify_flip(0, flip_number, path)
        learned = policy.noise
        assert learned > 0.0
        policy.restart(path)
        assert policy.noise == learned

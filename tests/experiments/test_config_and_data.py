"""Experiment configuration and campaign collection/caching."""

import dataclasses

import numpy as np
import pytest

from repro.engine.backends import ThreadBackend
from repro.experiments.config import BENCHMARK_KEYS, SAT_KEY, ExperimentConfig
from repro.experiments.data import clear_observation_cache, collect_observations
from repro.experiments.stages import STAGE_KINDS
from repro.solvers.policies import POLICIES


class TestExperimentConfig:
    def test_profiles_are_valid(self):
        for config in (ExperimentConfig.tiny(), ExperimentConfig.quick(), ExperimentConfig.full()):
            assert config.n_sequential_runs >= 2
            assert set(config.benchmarks()) == set(BENCHMARK_KEYS)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_sequential_runs=1)
        with pytest.raises(ValueError):
            ExperimentConfig(cores=())
        with pytest.raises(ValueError):
            ExperimentConfig(cores=(0, 4))
        with pytest.raises(ValueError):
            ExperimentConfig(n_parallel_runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(max_iterations=0)

    def test_benchmark_specs_build_solvers(self, tiny_config):
        for key, spec in tiny_config.benchmarks().items():
            solver = spec.make_solver(100)
            assert solver.config.max_iterations == 100
            assert spec.label.startswith(key)
            assert spec.problem == key

    def test_paper_families_and_shift_rules(self, tiny_config):
        assert tiny_config.paper_family("MS") == "shifted_lognormal"
        assert tiny_config.paper_family("AI") == "shifted_exponential"
        assert tiny_config.paper_family("Costas") == "shifted_exponential"
        assert tiny_config.paper_shift_rule("Costas") == "zero_if_negligible"

    def test_instance_sizes_affect_benchmarks(self):
        config = ExperimentConfig(magic_square_n=5, all_interval_n=20, costas_n=11,
                                  n_sequential_runs=2)
        specs = config.benchmarks()
        assert specs["MS"].make_solver(1).problem.size == 25
        assert specs["AI"].make_solver(1).problem.size == 20
        assert specs["Costas"].make_solver(1).problem.size == 11


class TestCampaignCollection:
    def test_all_benchmarks_collected(self, tiny_config, tiny_observations):
        assert set(tiny_observations) == set(BENCHMARK_KEYS)
        for key in BENCHMARK_KEYS:
            assert tiny_observations[key].n_runs == tiny_config.n_sequential_runs

    def test_in_process_cache_returns_same_data(self, tiny_config, tiny_observations):
        again = collect_observations("benchmarks", tiny_config)
        for key in BENCHMARK_KEYS:
            np.testing.assert_array_equal(
                again[key].iterations, tiny_observations[key].iterations
            )

    def test_disk_cache_round_trip(self, tmp_path):
        config = ExperimentConfig(
            magic_square_n=3,
            all_interval_n=8,
            costas_n=6,
            n_sequential_runs=4,
            n_parallel_runs=5,
            cores=(2, 4),
            max_iterations=20_000,
            base_seed=7,
        )
        clear_observation_cache()
        first = collect_observations("benchmarks", config, cache_dir=tmp_path)
        files = list(tmp_path.glob("observations-*.json"))
        assert len(files) == 3
        clear_observation_cache()
        second = collect_observations("benchmarks", config, cache_dir=tmp_path)
        for key in BENCHMARK_KEYS:
            np.testing.assert_array_equal(first[key].iterations, second[key].iterations)
        clear_observation_cache()

    def test_repeat_collection_runs_no_solver(self, tiny_config, solver_runs):
        first = collect_observations("benchmarks", tiny_config)
        solver_runs.clear()
        again = collect_observations("benchmarks", tiny_config)
        assert solver_runs == []
        for key in BENCHMARK_KEYS:
            np.testing.assert_array_equal(again[key].runtimes, first[key].runtimes)

    def test_clear_empties_the_memory_tier(self, tiny_config, solver_runs):
        config = dataclasses.replace(tiny_config, n_sequential_runs=3, base_seed=41)
        collect_observations("sat", config)
        assert len(solver_runs) == 3
        collect_observations("sat", config)
        assert len(solver_runs) == 3
        clear_observation_cache()
        collect_observations("sat", config)
        assert len(solver_runs) == 6

    def test_unknown_kind_names_the_known_kinds(self, tiny_config, solver_runs):
        with pytest.raises(ValueError) as excinfo:
            collect_observations("nope", tiny_config)
        assert "nope" in str(excinfo.value)
        assert str(STAGE_KINDS) in str(excinfo.value)
        assert solver_runs == []

    def test_policy_keys_follow_the_registered_policy_order(self, tiny_config):
        # Non-default configured policy: its batch is the SAT stage's, which
        # runs first, yet its key keeps its place in POLICIES order.
        config = dataclasses.replace(
            tiny_config, n_sequential_runs=2, sat_policy=POLICIES[-1]
        )
        observations = collect_observations("sat_policies", config)
        assert list(observations) == [f"{SAT_KEY}/{policy}" for policy in POLICIES]


class TestSATConfig:
    def test_profiles_scale_the_sat_instance(self):
        tiny = ExperimentConfig.tiny()
        quick = ExperimentConfig.quick()
        full = ExperimentConfig.full()
        assert tiny.sat_n_variables < quick.sat_n_variables < full.sat_n_variables
        for config in (tiny, quick, full):
            assert config.sat_clause_ratio == 4.2
            assert config.sat_k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sat_n_variables=2, sat_k=3)
        with pytest.raises(ValueError):
            ExperimentConfig(sat_clause_ratio=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(sat_k=0)

    def test_sat_benchmark_spec_is_deterministic(self, tiny_config):
        a = tiny_config.sat_benchmark()
        b = tiny_config.sat_benchmark()
        assert a == b
        assert a.label == b.label
        # Same config -> the very same formula: this is what makes SAT
        # campaigns content-addressable in the engine cache.
        assert a.make_solver(1).formula.clauses == b.make_solver(1).formula.clauses

    def test_different_seed_changes_the_instance(self, tiny_config):
        import dataclasses

        other = dataclasses.replace(tiny_config, base_seed=tiny_config.base_seed + 1)
        assert (
            tiny_config.sat_benchmark().make_solver(1).formula.clauses
            != other.sat_benchmark().make_solver(1).formula.clauses
        )

    def test_spec_builds_walksat_solver(self, tiny_config):
        solver = tiny_config.sat_benchmark().make_solver(123)
        assert solver.config.max_flips == 123
        assert solver.formula.n_variables == tiny_config.sat_n_variables


class TestSATCampaignCollection:
    def test_collection_and_in_process_cache(self, tiny_config):
        first = collect_observations("sat", tiny_config)
        assert set(first) == {SAT_KEY}
        assert first[SAT_KEY].n_runs == tiny_config.n_sequential_runs
        again = collect_observations("sat", tiny_config)
        np.testing.assert_array_equal(first[SAT_KEY].iterations, again[SAT_KEY].iterations)

    def test_disk_cache_round_trip(self, tmp_path):
        config = ExperimentConfig(
            sat_n_variables=20,
            n_sequential_runs=4,
            max_iterations=50_000,
            base_seed=13,
        )
        clear_observation_cache()
        first = collect_observations("sat", config, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("observations-*.json"))) == 1
        clear_observation_cache()
        second = collect_observations("sat", config, cache_dir=tmp_path)
        np.testing.assert_array_equal(first[SAT_KEY].iterations, second[SAT_KEY].iterations)
        clear_observation_cache()

    def test_policy_family_reuses_the_sat_batch(self, tiny_config, solver_runs):
        config = dataclasses.replace(tiny_config, n_sequential_runs=4, base_seed=23)
        clear_observation_cache()
        single = collect_observations("sat", config)[SAT_KEY]
        assert len(solver_runs) == 4
        solver_runs.clear()
        policies = collect_observations("sat_policies", config)
        # Only the non-default policies ran: the default-policy stage has
        # the SAT stage's cache address.
        assert len(solver_runs) == 4 * (len(POLICIES) - 1)
        shared = policies[f"{SAT_KEY}/{config.sat_policy}"]
        np.testing.assert_array_equal(shared.iterations, single.iterations)
        np.testing.assert_array_equal(shared.seeds, single.seeds)
        clear_observation_cache()

    def test_sat_campaign_is_backend_invariant(self, tiny_config):
        clear_observation_cache()
        serial = collect_observations("sat", tiny_config)[SAT_KEY]
        clear_observation_cache()
        threaded = collect_observations("sat", tiny_config, backend=ThreadBackend(2))[SAT_KEY]
        np.testing.assert_array_equal(serial.iterations, threaded.iterations)
        clear_observation_cache()

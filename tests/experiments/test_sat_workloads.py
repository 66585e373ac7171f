"""SAT workload families and policies through the experiment layer."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.config import SAT_FAMILIES, SAT_KEY, ExperimentConfig
from repro.experiments.data import (
    clear_observation_cache,
    collect_sat_observations,
    collect_sat_policy_observations,
)
from repro.experiments.sat import sat_flips_table, sat_policy_table
from repro.solvers.policies import POLICIES


@pytest.fixture(autouse=True)
def _fresh_campaign_cache():
    clear_observation_cache()
    yield
    clear_observation_cache()


def _tiny(**overrides):
    return dataclasses.replace(ExperimentConfig.tiny(), **overrides)


class TestFamilies:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            _tiny(sat_family="satlib")
        with pytest.raises(ValueError):
            _tiny(sat_policy="gsat")

    @pytest.mark.parametrize("family", SAT_FAMILIES)
    def test_formula_is_deterministic(self, family):
        config = _tiny(sat_family=family)
        a = config.sat_benchmark().make_solver(1).formula
        b = config.sat_benchmark().make_solver(1).formula
        assert a.clauses == b.clauses
        assert a.n_variables == b.n_variables

    def test_families_produce_distinct_instances(self):
        planted = _tiny(sat_family="planted").sat_benchmark().make_solver(1).formula
        uniform = _tiny(sat_family="uniform").sat_benchmark().make_solver(1).formula
        dimacs = _tiny(sat_family="dimacs").sat_benchmark().make_solver(1).formula
        assert planted.clauses != uniform.clauses
        assert dimacs.n_variables != planted.n_variables or dimacs.clauses != planted.clauses

    def test_labels_name_family_and_policy(self):
        assert _tiny().sat_benchmark().label == "3-SAT 25@4.2"
        assert _tiny(sat_family="uniform").sat_benchmark().label == "uniform 3-SAT 25@4.2"
        assert _tiny(sat_family="dimacs").sat_benchmark().label.startswith("dimacs uf20")
        assert _tiny(sat_policy="novelty").sat_benchmark().label.endswith("[novelty]")

    def test_dimacs_instance_is_selectable(self):
        config = _tiny(sat_family="dimacs", sat_dimacs="uf50-218-s1")
        formula = config.sat_benchmark().make_solver(1).formula
        assert (formula.n_variables, formula.n_clauses) == (50, 218)

    def test_unknown_dimacs_instance_fails_at_configuration_time(self):
        # Eager validation: a typo'd instance name must fail before any
        # campaign runs, not minutes in when the SAT formula is built.
        with pytest.raises(ValueError, match="bundled instances"):
            _tiny(sat_family="dimacs", sat_dimacs="missing-instance")

    def test_unknown_dimacs_name_is_ignored_by_other_families(self):
        # The name is only consulted by the dimacs family; a stale value
        # must not break planted/uniform configurations.
        config = _tiny(sat_family="planted", sat_dimacs="missing-instance")
        assert config.sat_benchmark().make_solver(1).formula.n_variables == 25

    def test_spec_policy_override_reaches_the_solver(self):
        solver = _tiny().sat_benchmark(policy="novelty+").make_solver(1000)
        assert solver.config.policy == "novelty+"
        assert solver.config.max_flips == 1000


class TestCampaignCollection:
    @pytest.mark.parametrize("family", SAT_FAMILIES)
    def test_collect_each_family_through_the_engine(self, family, tmp_path):
        config = _tiny(sat_family=family, n_sequential_runs=8)
        observations = collect_sat_observations(config, cache_dir=tmp_path)
        batch = observations[SAT_KEY]
        assert batch.n_runs == 8
        assert batch.label == config.sat_benchmark().label
        # Second collection must be a disk-cache hit producing equal data.
        clear_observation_cache()
        again = collect_sat_observations(config, cache_dir=tmp_path)[SAT_KEY]
        np.testing.assert_array_equal(batch.iterations, again.iterations)
        np.testing.assert_array_equal(batch.solved, again.solved)

    def test_families_and_policies_have_distinct_fingerprints(self, tmp_path):
        for family in SAT_FAMILIES:
            for policy in ("walksat", "novelty"):
                config = _tiny(sat_family=family, sat_policy=policy, n_sequential_runs=4)
                collect_sat_observations(config, cache_dir=tmp_path)
                clear_observation_cache()
        files = {p.name for p in tmp_path.glob("*.json")}
        assert len(files) == len(SAT_FAMILIES) * 2, files

    def test_policy_campaign_collects_every_policy(self):
        config = _tiny(n_sequential_runs=6)
        observations = collect_sat_policy_observations(config)
        assert set(observations) == {f"{SAT_KEY}/{p}" for p in POLICIES}
        labels = {observations[f"{SAT_KEY}/{p}"].label for p in POLICIES}
        assert len(labels) == len(POLICIES)  # one label per policy

    def test_policy_campaign_reuses_the_default_policy_batch_in_process(self):
        # Regression: without any disk cache, the default-policy batch must
        # not be collected twice — the policy campaign reads the batch the
        # single-policy campaign left in the memory tier.
        config = _tiny(n_sequential_runs=6)
        single = collect_sat_observations(config)[SAT_KEY]
        policies = collect_sat_policy_observations(config)
        shared = policies[f"{SAT_KEY}/{config.sat_policy}"]
        np.testing.assert_array_equal(shared.iterations, single.iterations)
        np.testing.assert_array_equal(shared.runtimes, single.runtimes)

    def test_policy_campaign_shares_the_default_policy_cache_entry(self, tmp_path):
        config = _tiny(n_sequential_runs=6)
        collect_sat_observations(config, cache_dir=tmp_path)
        n_single = len(list(tmp_path.glob("*.json")))
        clear_observation_cache()
        collect_sat_policy_observations(config, cache_dir=tmp_path)
        n_all = len(list(tmp_path.glob("*.json")))
        # The walksat batch was reused from disk: only the three non-default
        # policies added files.
        assert n_single == 1
        assert n_all == 1 + (len(POLICIES) - 1)


class TestCensoringAwareFits:
    def test_uniform_runs_hitting_max_flips_flow_through_censored_fit(self):
        # Regression (ISSUE-5): a tight flip budget on the uniform family
        # censors part of the campaign; sat_flips must report the censored
        # exponential MLE mean instead of the naive solved-only mean.
        config = _tiny(sat_family="uniform", n_sequential_runs=30, max_iterations=60)
        observations = collect_sat_observations(config)
        batch = observations[SAT_KEY]
        assert 0 < batch.n_solved < batch.n_runs, "need a partially censored batch"
        table = sat_flips_table(config, observations)
        assert table.censored_mean is not None
        # The censoring correction adds the capped runs' exposure: it must
        # exceed the naive mean of the solved runs.
        assert table.censored_mean > table.summary.mean
        assert "censoring-aware mean" in table.format()

    def test_fully_observed_batch_reports_no_censored_mean(self):
        config = _tiny(n_sequential_runs=8)
        observations = collect_sat_observations(config)
        assert observations[SAT_KEY].n_solved == 8
        table = sat_flips_table(config, observations)
        assert table.censored_mean is None
        assert "censoring-aware" not in table.format()

    def test_fully_censored_batch_formats_without_crashing(self):
        config = _tiny(sat_family="uniform", n_sequential_runs=6, max_iterations=1)
        observations = collect_sat_observations(config)
        assert observations[SAT_KEY].n_solved == 0
        table = sat_flips_table(config, observations)
        assert table.summary is None
        assert "every run was censored" in table.format()

    def test_policy_table_reports_per_policy_censoring(self):
        config = _tiny(sat_family="uniform", n_sequential_runs=20, max_iterations=60)
        table = sat_policy_table(config)
        assert table.policies == POLICIES
        assert set(table.censored_means) == set(POLICIES)
        formatted = table.format()
        for policy in POLICIES:
            assert policy in formatted

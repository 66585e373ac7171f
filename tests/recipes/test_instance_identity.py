"""One instance identity across the config and the recipe construction paths.

A stage built from an :class:`ExperimentConfig` and the same stage rebuilt
from its profiled recipe must name, and solve, the same instance with the
same solver — otherwise a ``scale=1`` replay would miss the cache and drift
from the profiled campaign.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import run_campaign
from repro.engine.cache import ObservationCache, algorithm_fingerprint
from repro.experiments.config import BENCHMARK_KEYS, SAT_FAMILIES, ExperimentConfig
from repro.experiments.stages import campaign_stages
from repro.recipes import InstanceMix, generate_stages, profile_report

_TINY = dataclasses.replace(ExperimentConfig.tiny(), n_sequential_runs=4)

_CASES = [("benchmarks", {})] + [
    ("sat", {"sat_family": family, "sat_policy": policy})
    for family in SAT_FAMILIES
    for policy in ("walksat", "novelty+")
]


def _case_id(case) -> str:
    kind, overrides = case
    return "-".join([kind, *overrides.values()])


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
def test_label_parses_back_to_the_descriptor(case):
    _, overrides = case
    config = dataclasses.replace(_TINY, **overrides)
    mixes = [*config.benchmarks().values(), config.sat_benchmark()]
    assert {mix.problem for mix in mixes} == {*BENCHMARK_KEYS, None}
    for mix in mixes:
        parsed = InstanceMix.from_label(mix.label)
        assert dataclasses.replace(parsed, instance_seed=mix.instance_seed) == mix


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
def test_generated_solver_matches_config_solver(case):
    """Config-built stages equal their profile -> generate(scale=1) rebuild."""
    kind, overrides = case
    stages = campaign_stages(dataclasses.replace(_TINY, **overrides), (kind,))
    recipe = profile_report(run_campaign(stages), name="identity")
    generated = generate_stages(recipe, scale=1)
    assert [s.key for s in generated] == [s.key for s in stages]
    for original, rebuilt in zip(stages, generated):
        assert (rebuilt.label, rebuilt.base_seed, rebuilt.budget) == (
            original.label,
            original.base_seed,
            original.budget,
        )
        assert algorithm_fingerprint(rebuilt.make_solver(rebuilt.budget)) == (
            algorithm_fingerprint(original.make_solver(original.budget))
        )


def test_tiny_cache_file_names_are_unchanged(tmp_path):
    """The descriptor must not move any cached batch to a new address."""
    cache = ObservationCache(tmp_path)
    names = {
        stage.key: cache.path_for(
            stage.make_solver(stage.budget), stage.quota, stage.base_seed, label=stage.label
        ).name
        for stage in campaign_stages(ExperimentConfig.tiny())
    }
    assert names == {
        "MS": "observations-7f9f5bd96a1426b064dfea75.json",
        "AI": "observations-37fac7f5c6faa61b8b94ed15.json",
        "Costas": "observations-63ca07b342fc0b3ca93deb60.json",
        "SAT": "observations-96730ee9b2c20460fed2359b.json",
        "SAT/novelty": "observations-a7405108acbddcb94b375702.json",
        "SAT/novelty+": "observations-84cba7b5c7dfa066e0ac7ed6.json",
        "SAT/adaptive": "observations-e05007ae3dab938c66c02556.json",
    }

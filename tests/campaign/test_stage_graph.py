"""Stage specs and DAG resolution (repro.campaign.stages) plus the
experiment-layer stage definitions (repro.experiments.stages)."""

import pytest

from repro.campaign.stages import StageGraphError, StageSpec, resolve_stage_order
from repro.experiments.config import BENCHMARK_KEYS, SAT_KEY, ExperimentConfig
from repro.experiments.stages import STAGE_KINDS, campaign_stages, canonical_emit_order
from repro.solvers.policies import POLICIES


def _stage(key, after=(), emit_keys=None, **kwargs):
    defaults = dict(
        label=key,
        kind="test",
        make_solver=lambda budget: None,
        quota=5,
        base_seed=1,
        budget=100,
        emit_keys=(key,) if emit_keys is None else emit_keys,
        after=tuple(after),
    )
    defaults.update(kwargs)
    return StageSpec(key=key, **defaults)


class TestStageSpecValidation:
    def test_accepts_a_sane_stage(self):
        stage = _stage("A")
        assert stage.required and not stage.supports_cutoff

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quota": 0},
            {"budget": 0},
            {"emit_keys": ()},
        ],
    )
    def test_rejects_bad_numbers(self, kwargs):
        with pytest.raises(ValueError):
            _stage("A", **kwargs)

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            _stage("")


class TestResolveStageOrder:
    def test_keeps_declaration_order_when_independent(self):
        stages = [_stage("C"), _stage("A"), _stage("B")]
        assert [s.key for s in resolve_stage_order(stages)] == ["C", "A", "B"]

    def test_dependencies_run_first(self):
        stages = [_stage("B", after=("A",)), _stage("A")]
        assert [s.key for s in resolve_stage_order(stages)] == ["A", "B"]

    def test_diamond(self):
        stages = [
            _stage("D", after=("B", "C")),
            _stage("B", after=("A",)),
            _stage("C", after=("A",)),
            _stage("A"),
        ]
        order = [s.key for s in resolve_stage_order(stages)]
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("A") < order.index("C") < order.index("D")

    def test_cycle_rejected(self):
        stages = [_stage("A", after=("B",)), _stage("B", after=("A",))]
        with pytest.raises(StageGraphError, match="cycle"):
            resolve_stage_order(stages)

    def test_self_dependency_rejected(self):
        with pytest.raises(StageGraphError):
            resolve_stage_order([_stage("A", after=("A",))])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(StageGraphError, match="unknown"):
            resolve_stage_order([_stage("A", after=("missing",))])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(StageGraphError, match="duplicate"):
            resolve_stage_order([_stage("A"), _stage("A")])

    def test_duplicate_emit_keys_rejected(self):
        with pytest.raises(StageGraphError):
            resolve_stage_order([_stage("A", emit_keys=("X",)), _stage("B", emit_keys=("X",))])


class TestExperimentStages:
    """The declarative campaigns must match what the collectors always ran."""

    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig.tiny()

    def test_full_dag_stage_keys(self, config):
        stages = campaign_stages(config)
        keys = [stage.key for stage in stages]
        non_default = [p for p in POLICIES if p != config.sat_policy]
        assert keys == [
            *BENCHMARK_KEYS,
            SAT_KEY,
            *[f"{SAT_KEY}/{p}" for p in non_default],
        ]
        resolve_stage_order(stages)  # must be a valid DAG

    def test_seed_roots_match_the_collectors(self, config):
        stages = {stage.key: stage for stage in campaign_stages(config)}
        for offset, key in enumerate(BENCHMARK_KEYS):
            assert stages[key].base_seed == config.base_seed + offset
        sat_root = config.base_seed + len(BENCHMARK_KEYS)
        assert stages[SAT_KEY].base_seed == sat_root
        for policy in POLICIES:
            if policy == config.sat_policy:
                continue
            # Policy stages share the SAT seed stream: batches differ only
            # in the flip policy.
            assert stages[f"{SAT_KEY}/{policy}"].base_seed == sat_root
            assert stages[f"{SAT_KEY}/{policy}"].after == (SAT_KEY,)

    def test_sat_stage_doubles_as_default_policy_row(self, config):
        stages = {stage.key: stage for stage in campaign_stages(config)}
        assert stages[SAT_KEY].emit_keys == (
            SAT_KEY,
            f"{SAT_KEY}/{config.sat_policy}",
        )

    def test_kind_subsets(self, config):
        sat_only = campaign_stages(config, kinds=("sat",))
        assert [s.key for s in sat_only] == [SAT_KEY]
        assert sat_only[0].emit_keys == (SAT_KEY,)
        bench_only = campaign_stages(config, kinds=("benchmarks",))
        assert [s.key for s in bench_only] == list(BENCHMARK_KEYS)

    def test_unknown_kind_rejected(self, config):
        with pytest.raises(ValueError, match="unknown observation kinds"):
            campaign_stages(config, kinds=("benchmarks", "nope"))

    def test_canonical_emit_order(self, config):
        stages = campaign_stages(config)
        order = canonical_emit_order(stages)
        # Benchmarks, then SAT, then the policy family in POLICIES order —
        # the default policy at its *policy* position despite sharing the
        # SAT stage.
        assert order == [
            *BENCHMARK_KEYS,
            SAT_KEY,
            *[f"{SAT_KEY}/{p}" for p in POLICIES],
        ]

    def test_stage_kinds_are_the_registry_vocabulary(self):
        from repro.experiments.registry import EXPERIMENTS

        declared = {entry.observations for entry in EXPERIMENTS.values()} - {None}
        assert declared == set(STAGE_KINDS)

"""Profiling campaign reports into recipes."""

import dataclasses
import math

import pytest

from repro.campaign import run_campaign
from repro.campaign.controller import StageRunRecord
from repro.campaign.report import CampaignReport, StageReport
from repro.experiments.config import ExperimentConfig
from repro.experiments.stages import campaign_stages
from repro.recipes import ProfileError, profile_report
from repro.recipes.profile import HEAVY_TAIL_LOG_SIGMA
from repro.stats.online import StreamingCensoredExponential


def make_report(stream, *, label="3-SAT 25@4.2", key="SAT", kind="sat", budget=50_000):
    stage = StageReport(
        key=key,
        label=label,
        kind=kind,
        quota=len(stream),
        base_seed=20130816,
        budget=budget,
        emit_keys=(key,),
        after=(),
        required=True,
        supports_cutoff=True,
        stream=tuple(stream),
    )
    return CampaignReport(controller="off", controller_params={}, stages=(stage,), decisions=())


def make_stream(iterations, solved=None, budget=50_000):
    solved = [True] * len(iterations) if solved is None else solved
    return [
        StageRunRecord(
            index=i,
            seed=1000 + i,
            iterations=int(it),
            solved=bool(ok),
            budget=budget,
            runtime_seconds=it * 1e-6,
        )
        for i, (it, ok) in enumerate(zip(iterations, solved))
    ]


class TestFitting:
    def test_refit_matches_streaming_estimator(self):
        iterations = [120, 340, 55, 900, 210, 80]
        recipe = profile_report(make_report(make_stream(iterations)), name="fit")
        expected = StreamingCensoredExponential()
        for value in iterations:
            expected.update(value, censored=False)
        fit = expected.fit()
        stage = recipe.stages[0]
        assert stage.runtime.family == "censored_exponential"
        assert stage.runtime.params == {"x0": fit.x0, "lam": fit.lam}
        assert stage.runtime.n_events == len(iterations)
        assert stage.censoring_rate == 0.0
        assert stage.budget_ratio == pytest.approx(50_000 / fit.mean())

    def test_censoring_rate_and_counts(self):
        stream = make_stream([100, 200, 50_000, 50_000], solved=[True, True, False, False])
        stage = profile_report(make_report(stream), name="cens").stages[0]
        assert stage.censoring_rate == 0.5
        assert stage.runtime.n_events == 2
        assert stage.runtime.n_censored == 2

    def test_heavy_tail_selects_lognormal(self):
        # Log-values dispersed far beyond the controller's Luby threshold.
        iterations = [10, 100_000, 12, 80_000, 9, 120_000, 11, 95_000]
        stage = profile_report(make_report(make_stream(iterations)), name="heavy").stages[0]
        assert stage.runtime.family == "lognormal"
        sigma = stage.runtime.params["sigma"]
        assert sigma > HEAVY_TAIL_LOG_SIGMA
        logs = [math.log(v) for v in iterations]
        mu = sum(logs) / len(logs)
        assert stage.runtime.params["mu"] == pytest.approx(mu)
        assert sigma == pytest.approx(
            math.sqrt(sum((v - mu) ** 2 for v in logs) / len(logs))
        )


class TestInstanceParsing:
    def test_all_campaign_stage_labels_parse(self, tmp_path):
        config = ExperimentConfig.tiny()
        report = run_campaign(campaign_stages(config))
        recipe = profile_report(report, name="all-kinds")
        by_key = {stage.key: stage for stage in recipe.stages}
        assert by_key["MS"].instance.problem == "MS"
        assert by_key["MS"].instance.size == config.magic_square_n
        assert by_key["AI"].instance.size == config.all_interval_n
        assert by_key["Costas"].instance.size == config.costas_n
        sat = by_key["SAT"].instance
        assert sat.sat_family == "planted"
        assert sat.n_variables == config.sat_n_variables
        assert sat.policy == "walksat"
        assert by_key["SAT/novelty"].instance.policy == "novelty"
        # Every stage recovers the configuration seed the instances drew from.
        assert {s.instance.instance_seed for s in recipe.stages} == {config.base_seed}

    @pytest.mark.parametrize(
        "label, family, policy",
        [
            ("uniform 3-SAT 150@4.2", "uniform", "walksat"),
            ("3-SAT 150@4.2 [novelty+]", "planted", "novelty+"),
            ("dimacs uf50-01 [adaptive]", "dimacs", "adaptive"),
        ],
    )
    def test_sat_label_variants(self, label, family, policy):
        stage = profile_report(
            make_report(make_stream([10, 20, 30]), label=label), name="lbl"
        ).stages[0]
        assert stage.instance.sat_family == family
        assert stage.instance.policy == policy

    @pytest.mark.parametrize(
        "label, key, kind, message",
        [
            ("mystery", "SAT", "sat", "cannot parse"),
            ("3-SAT 25@4.20", "SAT", "sat", "not canonical"),
            ("3-SAT 25@4.2 [walksat]", "SAT", "sat", "not canonical"),
            ("MS 3", "MS", "benchmarks", "not canonical"),
            ("MS 3x4", "MS", "benchmarks", "not canonical"),
            ("AI 8x8", "AI", "benchmarks", "not canonical"),
            ("Sudoku 9", "MS", "benchmarks", "needs problem"),
            ("MS 3x3", "SAT", "sat", "does not fit"),
            ("AI 8", "MS", "benchmarks", "does not fit"),
        ],
    )
    def test_unparseable_label_is_rejected(self, label, key, kind, message):
        report = make_report(make_stream([10, 20]), label=label, key=key, kind=kind)
        with pytest.raises(ProfileError, match=message):
            profile_report(report, name="bad")


class TestGuardrails:
    def test_all_censored_stage_is_rejected(self):
        stream = make_stream([50_000] * 4, solved=[False] * 4)
        with pytest.raises(ProfileError, match="all censored"):
            profile_report(make_report(stream), name="dead")

    def test_empty_report_is_rejected(self):
        report = make_report(make_stream([10, 20]))
        empty = CampaignReport(
            controller="off",
            controller_params={},
            stages=(dataclasses.replace(report.stages[0], stream=()),),
            decisions=(),
        )
        with pytest.raises(ProfileError, match="no executed stages"):
            profile_report(empty, name="empty")

    def test_dropped_dependencies_are_filtered(self, tiny_sat_report):
        # A dependent stage whose prerequisite never ran still profiles.
        base = tiny_sat_report.stages[0]
        dependent = dataclasses.replace(
            base,
            key="SAT/novelty",
            label=base.label + " [novelty]",
            kind="sat_policies",
            emit_keys=("SAT/novelty",),
            after=("SAT",),
        )
        report = CampaignReport(
            controller="off",
            controller_params={},
            stages=(dataclasses.replace(base, stream=()), dependent),
            decisions=(),
        )
        recipe = profile_report(report, name="partial")
        assert [stage.key for stage in recipe.stages] == ["SAT/novelty"]
        assert recipe.stages[0].after == ()

    def test_source_records_provenance(self, tiny_sat_recipe, tiny_sat_report):
        assert tiny_sat_recipe.source["controller"] == "off"
        assert tiny_sat_recipe.source["n_observations"] == tiny_sat_report.stages[0].n_issued

"""Profile a campaign report into a workload recipe.

:func:`profile_report` is the WfCommons "analyze an instance" step for
campaigns: it takes any replayable
:class:`~repro.campaign.report.CampaignReport` — written by
``repro-lasvegas campaign --report``, fetched from the HTTP service, or
downloaded from the nightly CI artifact — and refits each stage's recorded
run stream through the *same* streaming estimators the live controller
uses (:mod:`repro.stats.online`), so a recipe can never disagree with the
model the controller would have fitted online.

Per stage the profiler extracts:

* the fitted runtime family — lognormal when the fitted log-sigma exceeds
  the controller's heavy-tail threshold (the same rule that flips a stage
  to Luby restarts), censored shifted-exponential otherwise;
* the observed censoring rate and the budget/mean headroom ratio;
* the instance mix, parsed back out of the stage's label and seed root
  (labels are machine-stable by the campaign bit-identity contract, which
  is what makes them safe to parse).

Stages that never ran (dry runs, stages behind a failure) are dropped;
stages that ran but never solved are a :class:`ProfileError` — a recipe
cannot assert a runtime distribution nobody ever observed (same posture as
the BUG-021 campaign guardrail).
"""

from __future__ import annotations

import dataclasses

from repro.campaign.controller import HEAVY_TAIL_LOG_SIGMA
from repro.campaign.report import CampaignReport, StageReport
from repro.experiments.instances import BENCHMARK_KEYS
from repro.recipes.schema import (
    CampaignRecipe,
    FittedDistribution,
    InstanceMix,
    RecipeError,
    StageRecipe,
)
from repro.stats.online import StreamingCensoredExponential, StreamingLognormal

__all__ = ["HEAVY_TAIL_LOG_SIGMA", "ProfileError", "profile_report"]


class ProfileError(ValueError):
    """A campaign report cannot be profiled into a recipe."""


def _instance(stage: StageReport) -> InstanceMix:
    """The stage label's instance mix, at the config seed its seed root encodes."""
    # Benchmark seed roots are config.base_seed + table offset; SAT stages
    # (and the policy family, which shares the SAT seed stream) sit past
    # the three benchmark seed roots.
    if stage.kind == "benchmarks" and stage.key in BENCHMARK_KEYS:
        offset, problem = BENCHMARK_KEYS.index(stage.key), stage.key
    elif stage.kind in ("sat", "sat_policies"):
        offset, problem = len(BENCHMARK_KEYS), None
    else:
        raise ProfileError(f"stage {stage.key!r}: unknown {stage.kind!r} stage")
    try:
        instance = InstanceMix.from_label(stage.label)
    except RecipeError as exc:
        raise ProfileError(f"stage {stage.key!r}: {exc}") from None
    if instance.problem != problem:
        raise ProfileError(
            f"stage {stage.key!r}: label {stage.label!r} does not fit a {stage.kind!r} stage"
        )
    return dataclasses.replace(instance, instance_seed=stage.base_seed - offset)


def _fit_runtime(stage: StageReport) -> FittedDistribution:
    """Refit a stage's run stream with the controller's streaming estimators."""
    exponential = StreamingCensoredExponential()
    lognormal = StreamingLognormal()
    for record in stage.stream:
        censored = not record.solved
        exponential.update(record.iterations, censored=censored)
        if censored:
            lognormal.update(record.iterations, censored=True)
        elif record.iterations > 0:  # log of a zero-iteration solve is undefined
            lognormal.update(record.iterations)

    if exponential.n_events == 0:
        raise ProfileError(
            f"stage {stage.key!r}: no solved observations to fit "
            f"({exponential.n_censored} runs, all censored)"
        )

    sigma = lognormal.sigma
    if sigma is not None and sigma > HEAVY_TAIL_LOG_SIGMA:
        # Heavy tail: the same rule that flips the live controller to Luby.
        return FittedDistribution(
            family="lognormal",
            params={"mu": lognormal.mu, "sigma": sigma},
            n_events=lognormal.n_events,
            n_censored=lognormal.n_censored,
        )
    fit = exponential.fit()
    return FittedDistribution(
        family="censored_exponential",
        params={"x0": fit.x0, "lam": fit.lam},
        n_events=exponential.n_events,
        n_censored=exponential.n_censored,
    )


def profile_report(
    report: CampaignReport, *, name: str, description: str = ""
) -> CampaignRecipe:
    """Refit a campaign report's observation streams into a recipe.

    ``name`` becomes the recipe's name (filename-safe slug); stages that
    never issued a run are dropped (their dependents' ``after`` edges are
    filtered to the profiled set).  Raises :class:`ProfileError` when no
    stage ran, a stage solved nothing, or a stage label cannot be parsed
    back into an instance mix.
    """
    executed = [stage for stage in report.stages if stage.stream]
    if not executed:
        raise ProfileError("report contains no executed stages (dry run?)")
    kept = {stage.key for stage in executed}

    stage_recipes = []
    for stage in executed:
        runtime = _fit_runtime(stage)
        mean = runtime.mean()
        if mean <= 0:
            raise ProfileError(f"stage {stage.key!r}: fitted mean runtime {mean} is not positive")
        n_censored = sum(1 for record in stage.stream if not record.solved)
        stage_recipes.append(
            StageRecipe(
                key=stage.key,
                label=stage.label,
                kind=stage.kind,
                instance=_instance(stage),
                runtime=runtime,
                censoring_rate=n_censored / len(stage.stream),
                quota=stage.quota,
                budget=stage.budget,
                base_seed=stage.base_seed,
                budget_ratio=stage.budget / mean,
                after=tuple(dep for dep in stage.after if dep in kept),
                required=stage.required,
                supports_cutoff=stage.supports_cutoff,
            )
        )

    try:
        return CampaignRecipe(
            name=name,
            description=description,
            source={
                "controller": report.controller,
                "n_stages": len(stage_recipes),
                "n_observations": sum(len(stage.stream) for stage in executed),
                "n_solved": sum(stage.n_solved for stage in executed),
            },
            stages=tuple(stage_recipes),
        )
    except RecipeError as exc:
        raise ProfileError(f"profiled report does not form a valid recipe: {exc}") from exc

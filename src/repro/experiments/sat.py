"""SAT (WalkSAT portfolio) experiments — the paper-conclusion extension.

The paper closes by proposing to apply its parallel-runtime prediction
model to SAT solvers, where independent multi-walk parallelism is the
*algorithm portfolio* of the SAT community.  These experiments exercise
that claim with the same machinery as Tables 1–5: a sequential WalkSAT
campaign on the configured instance family (planted / uniform / DIMACS;
flips play the role of iterations), the simulated multi-walk as the
measured speed-up, and both the parametric and the nonparametric
predictors.

Censoring
---------
Uniform-ratio instances near the 4.27 phase transition are not guaranteed
satisfiable, so their campaigns are *censoring-heavy*: runs hitting
``max_flips`` only reveal that the runtime exceeds the budget.  The
sequential table therefore routes every batch containing censored runs
through the censoring-aware machinery of :mod:`repro.core.censoring`
(closed-form censored exponential MLE for the corrected mean) instead of
silently summarising the solved runs only.

Registered as ``sat_flips``, ``sat_portfolio`` and ``sat_policies`` in the
experiment registry, so they are available through ``repro-lasvegas run`` /
``list`` and share the engine's observation cache with the ``campaign``
subcommand.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from repro.core.prediction import (
    PredictionResult,
    predict_speedup_curve,
    predict_speedup_empirical,
)
from repro.experiments.config import SAT_KEY, ExperimentConfig
from repro.experiments.report import format_table
from repro.multiwalk.observations import RuntimeObservations
from repro.multiwalk.simulate import MultiwalkMeasurement, simulate_multiwalk_speedups
from repro.solvers.policies import POLICIES
from repro.stats.descriptive import RuntimeSummary, summarize
from repro.stats.online import censored_mean_or_none

__all__ = [
    "SATPolicyTable",
    "SATPortfolioTable",
    "SATSequentialTable",
    "sat_flips_table",
    "sat_policy_table",
    "sat_portfolio_table",
]


def _censoring_aware_mean(batch: RuntimeObservations) -> float | None:
    """Censored-MLE mean flips, or ``None`` when no correction applies.

    This is the path the uniform-ratio workloads exercise: their unsolved
    runs are right-censored at the flip budget, and dropping them (the
    naive solved-only mean) would bias the fit optimistic.  Every edge case
    (fully-observed, all-censored, single observation) is centralised in
    :func:`repro.stats.online.censored_mean_or_none`, so the tables no
    longer guard them ad hoc.
    """
    return censored_mean_or_none(batch.iterations, ~batch.solved)


@dataclasses.dataclass(frozen=True)
class SATSequentialTable:
    """Sequential WalkSAT flip statistics (the SAT analogue of Table 2).

    ``censored_mean`` is the censoring-corrected mean (censored exponential
    MLE over *all* runs, budget-capped ones included); it is ``None`` when
    every run solved, in which case the naive solved-only mean is unbiased.
    ``summary`` is ``None`` when *no* run solved (an unsatisfiable or
    hopelessly under-budgeted instance): there is nothing to summarise and
    the rate of the censored fit is not identifiable either.
    """

    label: str
    summary: RuntimeSummary | None
    success_rate: float
    censored_mean: float | None = None

    def rows(self) -> list[list[object]]:
        s = self.summary
        if s is None:
            return [[self.label, "-", "-", "-", "-"]]
        return [[self.label, s.minimum, s.mean, s.median, s.maximum]]

    def format(self) -> str:
        body = format_table(
            ["Instance", "Min", "Mean", "Median", "Max"],
            self.rows(),
            title="SAT. Sequential WalkSAT flips",
            float_format="{:,.0f}",
        )
        n_solved = 0 if self.summary is None else self.summary.n_runs
        body += f"\n{n_solved} solved runs, success rate {self.success_rate:.0%}"
        if self.summary is None:
            body += "\nevery run was censored at the flip budget; no fit is identifiable"
        elif self.censored_mean is not None:
            body += f"\ncensoring-aware mean (exponential MLE): {self.censored_mean:,.0f} flips"
        return body


def sat_flips_table(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SATSequentialTable:
    """Min/mean/median/max of the sequential WalkSAT flip counts.

    Batches containing budget-capped (censored) runs — typical for the
    uniform family near the phase transition — additionally report the
    censoring-aware mean instead of pretending the solved runs are the
    whole story.
    """
    batch = observations[SAT_KEY]
    solved_any = batch.n_solved > 0
    return SATSequentialTable(
        label=batch.label,
        summary=summarize(batch.values("iterations")) if solved_any else None,
        success_rate=batch.success_rate(),
        censored_mean=_censoring_aware_mean(batch),
    )


@dataclasses.dataclass(frozen=True)
class SATPolicyTable:
    """Per-policy sequential flip statistics on one fixed instance.

    One row per registered flip policy (:data:`~repro.solvers.policies.POLICIES`),
    every batch collected on the same instance with the same seed stream,
    so rows differ only in the policy.  Censoring-heavy batches (uniform
    family) report the censoring-aware mean in place of the naive one.
    """

    label: str
    policies: tuple[str, ...]
    summaries: Mapping[str, "RuntimeSummary | None"]
    success_rates: Mapping[str, float]
    censored_means: Mapping[str, float | None]

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for index, policy in enumerate(self.policies):
            s = self.summaries[policy]
            corrected = self.censored_means[policy]
            row: list[object] = [
                self.label if index == 0 else "",
                policy,
                f"{self.success_rates[policy]:.0%}",
            ]
            if s is None:
                row.extend(["-", "-", "-"])
            else:
                row.extend([s.mean if corrected is None else corrected, s.median, s.maximum])
            out.append(row)
        return out

    def format(self) -> str:
        body = format_table(
            ["Instance", "policy", "solved", "Mean*", "Median", "Max"],
            self.rows(),
            title="SAT. WalkSAT policy family, sequential flips",
            float_format="{:,.0f}",
        )
        return body + (
            "\n*censoring-aware (exponential MLE) mean where runs hit the flip budget;"
            "\n median/max over solved runs only"
        )


def sat_policy_table(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SATPolicyTable:
    """Compare every registered flip policy on the configured SAT instance."""
    summaries: dict[str, RuntimeSummary | None] = {}
    success_rates: dict[str, float] = {}
    censored_means: dict[str, float | None] = {}
    label = ""
    for policy in POLICIES:
        batch = observations[f"{SAT_KEY}/{policy}"]
        if not label:
            # The first (default-policy) label names the shared instance.
            label = batch.label
        solved_any = batch.n_solved > 0
        summaries[policy] = summarize(batch.values("iterations")) if solved_any else None
        success_rates[policy] = batch.success_rate()
        censored_means[policy] = _censoring_aware_mean(batch)
    return SATPolicyTable(
        label=label,
        policies=POLICIES,
        summaries=summaries,
        success_rates=success_rates,
        censored_means=censored_means,
    )


@dataclasses.dataclass(frozen=True)
class SATPortfolioTable:
    """Measured vs predicted WalkSAT portfolio speed-ups (the SAT Table 5)."""

    label: str
    cores: tuple[int, ...]
    measured: MultiwalkMeasurement
    parametric: PredictionResult
    empirical: PredictionResult

    def relative_error(self, n_cores: int) -> float:
        """|parametric - measured| / measured at one core count."""
        measured = self.measured.speedup(n_cores)
        if measured == 0.0:
            return float("inf")
        return abs(self.parametric.speedup(n_cores) - measured) / measured

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for series, source in (
            ("measured", self.measured),
            ("parametric", self.parametric),
            ("empirical", self.empirical),
        ):
            row: list[object] = [self.label if series == "measured" else "", series]
            row.extend(source.speedup(c) for c in self.cores)
            out.append(row)
        return out

    def format(self) -> str:
        headers = ["Instance", "series"] + [f"k={c}" for c in self.cores]
        body = format_table(
            headers,
            self.rows(),
            title="SAT. Measured and predicted portfolio speed-ups (flips)",
            float_format="{:.1f}",
        )
        return body + f"\nfitted family: {self.parametric.family}"


def sat_portfolio_table(
    config: ExperimentConfig,
    observations: Mapping[str, RuntimeObservations],
) -> SATPortfolioTable:
    """Simulated portfolio speed-ups vs the parametric and empirical predictors."""
    batch = observations[SAT_KEY]
    flips = batch.values("iterations")
    rng = np.random.default_rng(config.base_seed + 977)
    measured = simulate_multiwalk_speedups(
        batch,
        config.cores,
        measure="iterations",
        n_parallel_runs=config.n_parallel_runs,
        rng=rng,
    )
    return SATPortfolioTable(
        label=batch.label,
        cores=tuple(config.cores),
        measured=measured,
        parametric=predict_speedup_curve(flips, config.cores),
        empirical=predict_speedup_empirical(flips, config.cores),
    )

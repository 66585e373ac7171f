"""Registry mapping experiment identifiers to experiment functions.

Paper identifiers (``table1`` … ``figure14``) reproduce the evaluation
section; the ``sat_*`` experiments exercise the SAT extension the paper's
conclusion proposes.  Each entry declares which observation kind it
consumes (``"benchmarks"`` for the three CSP benchmarks, ``"sat"`` for the
configured WalkSAT workload, ``"sat_policies"`` for its flip-policy family,
``None`` for pure-model figures).  The CLI collects each kind once per
invocation with :func:`repro.experiments.data.collect_observations` and
hands the observations to every experiment; :func:`run_experiment` is the
one place that collects on its own when none are given (served by the
content-addressed observation cache).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import collect_observations
from repro.experiments.stages import STAGE_KINDS
from repro.experiments import figures_experiments, figures_fits, figures_model, sat, tables

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "list_experiments",
    "run_experiment",
]


@dataclasses.dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment.

    Attributes
    ----------
    func:
        Experiment function; solver-backed ones take
        ``(config, observations)``, pure-model ones take keyword arguments
        only.
    observations:
        Which observation kind the experiment consumes (one of
        :data:`~repro.experiments.stages.STAGE_KINDS`), or ``None`` for
        experiments that run no solver.
    description:
        One-line description shown by ``repro-lasvegas list``.
    """

    func: Callable
    observations: str | None
    description: str

    def __post_init__(self) -> None:
        if self.observations is not None and self.observations not in STAGE_KINDS:
            raise ValueError(
                f"observations must be one of {STAGE_KINDS} or None, "
                f"got {self.observations!r}"
            )


EXPERIMENTS: Mapping[str, ExperimentEntry] = {
    "table1": ExperimentEntry(tables.table1_sequential_times, "benchmarks", "Sequential execution times"),
    "table2": ExperimentEntry(tables.table2_sequential_iterations, "benchmarks", "Sequential iteration counts"),
    "table3": ExperimentEntry(tables.table3_time_speedups, "benchmarks", "Measured speed-ups w.r.t. time"),
    "table4": ExperimentEntry(tables.table4_iteration_speedups, "benchmarks", "Measured speed-ups w.r.t. iterations"),
    "table5": ExperimentEntry(tables.table5_prediction_comparison, "benchmarks", "Experimental vs predicted speed-ups"),
    "figure1": ExperimentEntry(figures_model.figure1_gaussian_min, None, "Min-distribution of a gaussian"),
    "figure2": ExperimentEntry(figures_model.figure2_exponential_min, None, "Min-distribution of a shifted exponential"),
    "figure3": ExperimentEntry(figures_model.figure3_exponential_speedup, None, "Predicted speed-up, shifted exponential"),
    "figure4": ExperimentEntry(figures_model.figure4_lognormal_min, None, "Min-distribution of a lognormal"),
    "figure5": ExperimentEntry(figures_model.figure5_lognormal_speedup, None, "Predicted speed-up, lognormal"),
    "figure6": ExperimentEntry(figures_experiments.figure6_csplib_speedups, "benchmarks", "Measured speed-ups, CSPLib benchmarks"),
    "figure7": ExperimentEntry(figures_experiments.figure7_costas_speedups, "benchmarks", "Measured speed-ups, Costas"),
    "figure8": ExperimentEntry(figures_fits.figure8_all_interval_fit, "benchmarks", "ALL-INTERVAL histogram + exponential fit"),
    "figure9": ExperimentEntry(figures_fits.figure9_all_interval_prediction, "benchmarks", "Predicted speed-up, ALL-INTERVAL"),
    "figure10": ExperimentEntry(figures_fits.figure10_magic_square_fit, "benchmarks", "MAGIC-SQUARE histogram + lognormal fit"),
    "figure11": ExperimentEntry(figures_fits.figure11_magic_square_prediction, "benchmarks", "Predicted speed-up, MAGIC-SQUARE"),
    "figure12": ExperimentEntry(figures_fits.figure12_costas_fit, "benchmarks", "COSTAS histogram + exponential fit"),
    "figure13": ExperimentEntry(figures_fits.figure13_costas_prediction, "benchmarks", "Predicted speed-up, COSTAS"),
    "figure14": ExperimentEntry(figures_experiments.figure14_costas_extended, "benchmarks", "COSTAS speed-up at large core counts"),
    "sat_flips": ExperimentEntry(sat.sat_flips_table, "sat", "Sequential WalkSAT flips on the configured SAT workload"),
    "sat_portfolio": ExperimentEntry(sat.sat_portfolio_table, "sat", "Measured vs predicted WalkSAT portfolio speed-ups"),
    "sat_policies": ExperimentEntry(sat.sat_policy_table, "sat_policies", "WalkSAT/Novelty/Novelty+/adaptive flips on one instance"),
}


def list_experiments() -> list[tuple[str, str]]:
    """Available experiment ids with their one-line descriptions."""
    return [(name, entry.description) for name, entry in EXPERIMENTS.items()]


def run_experiment(name: str, config: ExperimentConfig | None = None, **kwargs):
    """Run one experiment by its identifier and return its result object.

    Solver-backed experiments use the ``observations`` keyword when given;
    without it their kind is collected with
    :func:`~repro.experiments.data.collect_observations`, whose observation
    cache makes running several of them pay the solver cost once per
    configuration.  Pure-model experiments ignore ``config`` and
    ``observations``.
    """
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None
    observations = kwargs.pop("observations", None)
    if entry.observations is None:
        return entry.func(**kwargs)
    config = config or ExperimentConfig.quick()
    if observations is None:
        observations = collect_observations(entry.observations, config)
    return entry.func(config, observations, **kwargs)

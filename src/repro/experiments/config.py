"""Experiment configuration: instance sizes, run counts, core counts.

The paper's evaluation uses MAGIC-SQUARE 200x200, ALL-INTERVAL 700 and
COSTAS 21 with ~650 sequential runs and 50 parallel runs per core count on a
256-core cluster.  Those instances need cluster-months of C code; this
reproduction runs the same algorithm on scaled-down instances (the paper
itself argues the distribution *shape* is stable across instance sizes for a
given problem, which is what the prediction relies on).  Four profiles are
provided:

* ``tiny``  — smallest meaningful sizes, used by the fast unit tests.
* ``quick`` — sized so the whole table/figure suite runs in minutes on a
  single laptop core (used by the test-suite and the benchmark harness).
* ``medium`` — the nightly-CI campaign profile: larger than ``quick`` but
  bounded by a hosted-runner budget.
* ``full``  — larger instances and more runs for a closer reproduction.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.experiments.instances import BENCHMARK_KEYS, SAT_FAMILIES, InstanceMix
from repro.sat.dimacs import DEFAULT_INSTANCE, bundled_instance_path
from repro.solvers.policies import validate_policy

__all__ = [
    "BENCHMARK_KEYS",
    "ExperimentConfig",
    "PROFILES",
    "SAT_FAMILIES",
    "SAT_KEY",
]

#: Key of the SAT workload (the paper-conclusion extension) in campaign maps.
SAT_KEY: str = "SAT"


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    Attributes
    ----------
    magic_square_n, all_interval_n, costas_n:
        Instance sizes of the three benchmarks (the paper uses 200, 700, 21).
    sat_n_variables, sat_clause_ratio, sat_k:
        Random k-SAT instance of the WalkSAT workload (the SAT extension
        the paper's conclusion proposes); the default ratio 4.2 sits just
        under the 3-SAT phase transition (~4.27), where runtimes are
        heavy-tailed.  Ignored by the ``"dimacs"`` family, which loads a
        fixed checked-in instance instead.
    sat_family:
        Instance family of the SAT workload: ``"planted"`` (satisfiable by
        construction, the default), ``"uniform"`` (uniform draw at
        ``sat_clause_ratio`` — satisfiability not guaranteed, so campaigns
        are censoring-heavy and flow through the censoring-aware fits) or
        ``"dimacs"`` (a bundled DIMACS file, see ``sat_dimacs``).
    sat_policy:
        Flip-picking policy of the SAT workload solver — one of
        :data:`repro.solvers.policies.POLICIES` (``"walksat"``,
        ``"novelty"``, ``"novelty+"``, ``"adaptive"``).
    sat_dimacs:
        Name of the bundled DIMACS instance used by the ``"dimacs"``
        family (see :func:`repro.sat.dimacs.bundled_instance_names`).
    n_sequential_runs:
        Independent sequential runs collected per benchmark (paper: ~650).
    n_parallel_runs:
        Simulated parallel executions averaged per core count (paper: 50).
    cores:
        Core counts evaluated in the speed-up tables (paper: 16…256).
    extended_cores:
        Core counts for the Figure 14 extension (paper: up to 8192).
    max_iterations:
        Per-run iteration budget of the solver (censoring threshold).
    base_seed:
        Root seed from which all per-run seeds are derived.
    """

    magic_square_n: int = 4
    all_interval_n: int = 12
    costas_n: int = 10
    sat_n_variables: int = 50
    sat_clause_ratio: float = 4.2
    sat_k: int = 3
    sat_family: str = "planted"
    sat_policy: str = "walksat"
    sat_dimacs: str = DEFAULT_INSTANCE
    n_sequential_runs: int = 80
    n_parallel_runs: int = 50
    cores: tuple[int, ...] = (16, 32, 64, 128, 256)
    extended_cores: tuple[int, ...] = (512, 1024, 2048, 4096, 8192)
    max_iterations: int = 200_000
    base_seed: int = 20130813  # ICPP 2013 nod; any fixed value works

    def __post_init__(self) -> None:
        if self.n_sequential_runs < 2:
            raise ValueError("need at least two sequential runs")
        if self.n_parallel_runs < 1:
            raise ValueError("need at least one parallel run")
        if not self.cores or any(c < 1 for c in self.cores):
            raise ValueError(f"core counts must be positive, got {self.cores}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.sat_k < 1:
            raise ValueError(f"sat_k must be >= 1, got {self.sat_k}")
        if self.sat_n_variables < self.sat_k:
            raise ValueError(
                f"sat_n_variables must be >= sat_k={self.sat_k}, got {self.sat_n_variables}"
            )
        if self.sat_clause_ratio <= 0.0:
            raise ValueError(f"sat_clause_ratio must be positive, got {self.sat_clause_ratio}")
        if self.sat_family not in SAT_FAMILIES:
            raise ValueError(
                f"sat_family must be one of {SAT_FAMILIES}, got {self.sat_family!r}"
            )
        validate_policy(self.sat_policy)
        if self.sat_family == "dimacs":
            # Fail at configuration time, not minutes into a campaign when
            # the SAT kind finally builds its formula.
            bundled_instance_path(self.sat_dimacs)

    # ------------------------------------------------------------------
    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Laptop/CI profile: small instances, enough runs for stable fits."""
        return cls()

    @classmethod
    def medium(cls) -> "ExperimentConfig":
        """Nightly-CI profile: between ``quick`` and ``full``.

        Sized so a full campaign plus every table/figure finishes within a
        hosted-runner budget (the nightly workflow fails the campaign step
        at 15 minutes) while stressing the heavy-tailed regime — one more
        notch toward the ROADMAP's paper-scale instances now that every
        hot path is incremental (was MS 4 / AI 14 / Costas 11 / SAT 75;
        measured on the 1-core dev container the 200-run campaigns cost
        ~90 s for MS 6, ~280 s for AI 16, ~50 s for Costas 13 and a few
        seconds for SAT 150 across all four policies, ≈ 8 minutes total).
        """
        return cls(
            magic_square_n=6,
            all_interval_n=16,
            costas_n=13,
            sat_n_variables=150,
            n_sequential_runs=200,
            n_parallel_runs=50,
            max_iterations=500_000,
        )

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """Longer campaign: larger instances, paper-scale run counts.

        Kept a strict notch above ``medium`` (which the nightly CI grew to
        MS 6 / AI 16 / Costas 13 / SAT 150) on every axis, with the flip
        budget raised to keep the larger instances solvable-not-censored.
        """
        return cls(
            magic_square_n=7,
            all_interval_n=18,
            costas_n=14,
            sat_n_variables=200,
            n_sequential_runs=400,
            n_parallel_runs=50,
            max_iterations=2_000_000,
        )

    @classmethod
    def tiny(cls) -> "ExperimentConfig":
        """Smallest meaningful profile, used by the fast unit tests."""
        return cls(
            magic_square_n=3,
            all_interval_n=8,
            costas_n=7,
            sat_n_variables=25,
            n_sequential_runs=30,
            n_parallel_runs=20,
            cores=(4, 16, 64),
            extended_cores=(128, 256),
            max_iterations=50_000,
        )

    # ------------------------------------------------------------------
    def benchmarks(self) -> Mapping[str, InstanceMix]:
        """The three paper benchmarks at this configuration's sizes."""
        sizes = (self.magic_square_n, self.all_interval_n, self.costas_n)
        return {
            key: InstanceMix(workload="csp", problem=key, size=size, instance_seed=self.base_seed)
            for key, size in zip(BENCHMARK_KEYS, sizes)
        }

    def sat_benchmark(self, policy: str | None = None) -> InstanceMix:
        """The configured SAT workload (family × policy) at this size.

        Generated instances are drawn deterministically from the
        configuration's seed (independent of the per-run seed streams) and
        the DIMACS family loads a fixed checked-in file, so two
        invocations with the same configuration solve the *same* formula —
        which is what makes SAT campaigns cacheable by content address
        (and bit-comparable across hosts and backends).

        ``policy`` overrides ``sat_policy`` — used by the policy-family
        campaign, which collects one batch per registered policy.
        """
        policy = self.sat_policy if policy is None else policy
        if self.sat_family == "dimacs":  # instance name validated in __post_init__
            return InstanceMix(
                workload="sat",
                sat_family="dimacs",
                dimacs=self.sat_dimacs,
                policy=policy,
                instance_seed=self.base_seed,
            )
        return InstanceMix(
            workload="sat",
            sat_family=self.sat_family,
            n_variables=self.sat_n_variables,
            clause_ratio=self.sat_clause_ratio,
            k=self.sat_k,
            policy=policy,
            instance_seed=self.base_seed,
        )

    #: Distribution family the paper fits to each benchmark (Section 6).
    PAPER_FAMILIES: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: {
            "MS": "shifted_lognormal",
            "AI": "shifted_exponential",
            "Costas": "shifted_exponential",
        }
    )

    #: Shift rule the paper applies to each benchmark (Section 6).
    PAPER_SHIFT_RULES: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: {
            "MS": "min",
            "AI": "min",
            "Costas": "zero_if_negligible",
        }
    )

    def paper_family(self, key: str) -> str:
        """Family the paper uses for benchmark ``key``."""
        return self.PAPER_FAMILIES[key]

    def paper_shift_rule(self, key: str) -> str:
        """Shift rule the paper uses for benchmark ``key``."""
        return self.PAPER_SHIFT_RULES[key]


#: Every named profile, smallest first: the CLI's ``--profile`` choices and
#: the service's ``profile`` field both read this one table.
PROFILES: Mapping[str, Callable[[], ExperimentConfig]] = {
    "tiny": ExperimentConfig.tiny,
    "quick": ExperimentConfig.quick,
    "medium": ExperimentConfig.medium,
    "full": ExperimentConfig.full,
}

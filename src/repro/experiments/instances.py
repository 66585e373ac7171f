"""The benchmark instance descriptor: which instance, solved by which solver.

The paper's predictor reuses one sequential runtime distribution per
benchmark instance, so "which instance, which solver" is the identity the
observation-cache address, the report label and a workload recipe's
instance mix all depend on.  :class:`InstanceMix` is its only definition:

* :meth:`ExperimentConfig.benchmarks` and
  :meth:`~repro.experiments.config.ExperimentConfig.sat_benchmark` return
  descriptors, and campaign stages take their label and solver from them;
* a recipe stores the descriptor (:meth:`InstanceMix.as_dict`), the
  profiler recovers it from a report's stage label
  (:meth:`InstanceMix.from_label`), and the generator builds its solvers
  through the same :meth:`InstanceMix.make_solver`.

So a generated stage at ``scale=1`` solves the very instance the profiled
stage solved, with the same solver configuration, and hits the same cache
files.  A malformed descriptor raises :class:`RecipeError`.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Mapping, Sequence

import numpy as np

from repro.csp.problems import AllIntervalProblem, CostasArrayProblem, MagicSquareProblem
from repro.sat.cnf import CNFFormula
from repro.sat.dimacs import load_bundled_instance
from repro.sat.generators import clause_count_for_ratio, random_ksat, random_planted_ksat
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.walksat import WalkSAT, WalkSATConfig

__all__ = [
    "BENCHMARK_KEYS",
    "CSP_PROBLEMS",
    "InstanceMix",
    "RecipeError",
    "SAT_FAMILIES",
    "SAT_NOISE",
    "WORKLOADS",
]

#: CSP benchmark key → permutation problem it builds, in paper-table order.
CSP_PROBLEMS: Mapping[str, type] = {
    "MS": MagicSquareProblem,
    "AI": AllIntervalProblem,
    "Costas": CostasArrayProblem,
}

#: Order in which the three benchmarks appear in every paper table.
BENCHMARK_KEYS: tuple[str, ...] = tuple(CSP_PROBLEMS)

#: Instance families the SAT workload can draw from.
SAT_FAMILIES: tuple[str, ...] = ("planted", "uniform", "dimacs")

#: Instance workloads a descriptor can name.
WORKLOADS: tuple[str, ...] = ("csp", "sat")

#: WalkSAT noise of every SAT workload solver.
SAT_NOISE = 0.5

#: Salt of each generated SAT family's draw ``default_rng((instance_seed,
#: salt))`` — a root distinct from the per-run seed streams, and distinct
#: per family so the two never share an instance even at identical sizes.
#: The uniform constant was picked (once, offline) so the default profiles'
#: draws at the default base seed are satisfiable-but-hard: a satisfiable
#: instance keeps ``sat_portfolio`` meaningful while the heavy tail still
#: censors runs at tight budgets (nearby constants give unsatisfiable draws
#: at n=50 or n=150).
_DRAW_SALTS: Mapping[str, int] = {"planted": 0x5A7, "uniform": 0x5AA}

#: Every label :attr:`InstanceMix.label` writes; ``from_label`` re-renders
#: the parsed descriptor to reject anything else.
_LABEL = re.compile(
    r"(?P<problem>\w+) (?P<size>\d+)(?:x\d+)?"
    r"|(?:(?P<uniform>uniform )?(?P<k>\d+)-SAT (?P<n>\d+)@(?P<ratio>\d+(?:\.\d+)?)"
    r"|dimacs (?P<dimacs>\S+))"
    r"(?: \[(?P<policy>[\w+-]+)\])?"
)


class RecipeError(ValueError):
    """A recipe document or instance descriptor failed validation."""


def _require_keys(payload: Mapping, allowed: Sequence[str], where: str) -> None:
    if not isinstance(payload, Mapping):
        raise RecipeError(f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RecipeError(f"{where}: unknown fields {unknown}")


def _finite(value: object, where: str) -> float:
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise RecipeError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise RecipeError(f"{where} must be finite, got {out!r}")
    return out


def _positive_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecipeError(f"{where} must be an integer, got {value!r}")
    if value < 1:
        raise RecipeError(f"{where} must be >= 1, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class InstanceMix:
    """What instances a stage's runs were (and will be) drawn over.

    ``workload="csp"`` names one of the registered permutation problems at
    a size; ``workload="sat"`` names an instance family (planted draws,
    uniform-ratio draws or a bundled DIMACS file), the draw parameters and
    the flip policy.  ``instance_seed`` is the configuration-level seed the
    generated draw derives from — recording it is what lets ``scale=1``
    generation rebuild the *same* formula the profiled campaign solved.
    """

    workload: str
    problem: str | None = None
    size: int | None = None
    sat_family: str | None = None
    n_variables: int | None = None
    clause_ratio: float | None = None
    k: int | None = None
    policy: str | None = None
    dimacs: str | None = None
    instance_seed: int | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise RecipeError(
                f"unknown workload {self.workload!r} (workloads: {', '.join(WORKLOADS)})"
            )
        if self.workload == "csp":
            if self.problem not in CSP_PROBLEMS:
                raise RecipeError(
                    f"csp workload needs problem in {BENCHMARK_KEYS}, got {self.problem!r}"
                )
            _positive_int(self.size, "instance.size")
            forbidden = {
                name: getattr(self, name)
                for name in ("sat_family", "n_variables", "clause_ratio", "k", "policy", "dimacs")
                if getattr(self, name) is not None
            }
            if forbidden:
                raise RecipeError(f"csp workload forbids SAT fields {sorted(forbidden)}")
        else:  # sat
            if self.sat_family not in SAT_FAMILIES:
                raise RecipeError(
                    f"sat workload needs sat_family in {SAT_FAMILIES}, got {self.sat_family!r}"
                )
            if self.problem is not None or self.size is not None:
                raise RecipeError("sat workload forbids csp fields ['problem', 'size']")
            if not isinstance(self.policy, str) or not self.policy:
                raise RecipeError(f"sat workload needs a policy, got {self.policy!r}")
            if self.sat_family == "dimacs":
                if not isinstance(self.dimacs, str) or not self.dimacs:
                    raise RecipeError("sat_family 'dimacs' needs a dimacs instance name")
            else:
                _positive_int(self.n_variables, "instance.n_variables")
                _positive_int(self.k, "instance.k")
                if _finite(self.clause_ratio, "instance.clause_ratio") <= 0:
                    raise RecipeError(
                        f"instance.clause_ratio must be positive, got {self.clause_ratio!r}"
                    )
                if self.dimacs is not None:
                    raise RecipeError("generated SAT families forbid a dimacs name")
        if self.instance_seed is not None and (
            isinstance(self.instance_seed, bool) or not isinstance(self.instance_seed, int)
        ):
            raise RecipeError(f"instance_seed must be an integer, got {self.instance_seed!r}")

    # -- identity ------------------------------------------------------
    @property
    def label(self) -> str:
        """Display label of the instance — the stage label campaigns report."""
        if self.workload == "csp":
            size = f"{self.size}x{self.size}" if self.problem == "MS" else f"{self.size}"
            return f"{self.problem} {size}"
        if self.sat_family == "dimacs":
            label = f"dimacs {self.dimacs}"
        else:
            prefix = "uniform " if self.sat_family == "uniform" else ""
            label = f"{prefix}{self.k}-SAT {self.n_variables}@{self.clause_ratio:g}"
        return label if self.policy == "walksat" else f"{label} [{self.policy}]"

    @classmethod
    def from_label(cls, label: str) -> "InstanceMix":
        """Parse a :attr:`label` back into its descriptor.

        Labels are machine-stable (the campaign bit-identity contract), so
        this is the exact inverse of :attr:`label`.  A label does not carry
        the instance seed: the result's ``instance_seed`` is ``None``.
        """
        match = _LABEL.fullmatch(label)
        if match is None:
            raise RecipeError(f"cannot parse instance label {label!r}")
        if match["problem"]:
            fields = dict(workload="csp", problem=match["problem"], size=int(match["size"]))
        elif match["dimacs"]:
            fields = dict(workload="sat", sat_family="dimacs", dimacs=match["dimacs"])
        else:
            fields = dict(
                workload="sat",
                sat_family="uniform" if match["uniform"] else "planted",
                n_variables=int(match["n"]),
                clause_ratio=float(match["ratio"]),
                k=int(match["k"]),
            )
        if fields["workload"] == "sat":
            fields["policy"] = match["policy"] or "walksat"
        mix = cls(**fields)
        if mix.label != label:
            raise RecipeError(f"instance label {label!r} is not canonical ({mix.label!r})")
        return mix

    # -- solvers -------------------------------------------------------
    def make_solver(self, budget: int) -> AdaptiveSearch | WalkSAT:
        """A solver for this instance with a per-run budget of ``budget``."""
        if self.workload == "csp":
            return AdaptiveSearch(
                CSP_PROBLEMS[self.problem](self.size),
                AdaptiveSearchConfig(max_iterations=budget),
            )
        return WalkSAT(
            self._formula(),
            WalkSATConfig(max_flips=budget, noise=SAT_NOISE, policy=self.policy),
        )

    def _formula(self) -> CNFFormula:
        """The SAT instance: a bundled file or a draw fixed by the instance seed."""
        if self.sat_family == "dimacs":
            return load_bundled_instance(self.dimacs)
        n_clauses = clause_count_for_ratio(self.n_variables, self.clause_ratio)
        rng = np.random.default_rng((self.instance_seed, _DRAW_SALTS[self.sat_family]))
        if self.sat_family == "planted":
            formula, _planted = random_planted_ksat(self.n_variables, n_clauses, self.k, rng=rng)
            return formula
        return random_ksat(self.n_variables, n_clauses, self.k, rng=rng)

    # -- serialisation -------------------------------------------------
    def as_dict(self) -> dict:
        out: dict = {"workload": self.workload}
        for name in (
            "problem",
            "size",
            "sat_family",
            "n_variables",
            "clause_ratio",
            "k",
            "policy",
            "dimacs",
            "instance_seed",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "InstanceMix":
        allowed = (
            "workload",
            "problem",
            "size",
            "sat_family",
            "n_variables",
            "clause_ratio",
            "k",
            "policy",
            "dimacs",
            "instance_seed",
        )
        _require_keys(payload, allowed, "instance")
        if "workload" not in payload:
            raise RecipeError("instance: missing field 'workload'")
        return cls(**{name: payload.get(name) for name in allowed})

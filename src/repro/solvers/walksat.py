"""WalkSAT family — stochastic local search for SAT (extension Las Vegas algorithms).

The paper's conclusion proposes applying the prediction model to SAT
solvers; WalkSAT (Selman, Kautz & Cohen) is the canonical stochastic local
search SAT procedure and the engine behind the portfolio approaches the
paper cites.  One *flip* is counted as one iteration, making the iteration
counts directly comparable with the Adaptive Search benchmarks.

Shared skeleton (every policy):

1. start from a uniformly random assignment;
2. pick an unsatisfied clause uniformly at random;
3. flip the variable of that clause chosen by the configured
   :class:`~repro.solvers.policies.FlipPolicy` — WalkSAT/SKC, Novelty,
   Novelty+ or adaptive noise (see :mod:`repro.solvers.policies`);
4. repeat until the formula is satisfied or the flip budget is exhausted,
   re-randomising every ``restart_after`` flips when restarts are enabled.

Evaluation paths
----------------
The hot loop consumes one of two path objects of
:mod:`repro.sat.incremental`.  :class:`~repro.sat.incremental.IncrementalClausePath`
keeps per-run true-literal counts over the formula's shared flat
``list[int]`` tables of break candidates, make clauses and count deltas,
at O(occurrences of the flipped variable) of plain Python per flip.
:class:`~repro.sat.incremental.BatchClausePath` is the oracle: the same
object with every query re-evaluated through the vectorised
:class:`~repro.sat.cnf.CNFFormula` methods.  The two are exact mirrors:
for a given seed and policy they present the same clause for the same RNG
draw and produce bit-identical flip sequences, solutions and restart
counts — the same contract :class:`~repro.solvers.adaptive_search.AdaptiveSearch`
pins for its delta kernels.  Policies only query the path surface
(``break_count``/``make_count``/``n_unsat``), which is what extends the
contract to the whole variant family.  Either way the picked clause's
variables come from the formula's precomputed
``ClauseEvaluator.clause_variables`` table, not from its literals.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sat import vectorized
from repro.sat.cnf import CNFFormula
from repro.sat.incremental import BatchClausePath, IncrementalClausePath
from repro.solvers.base import LasVegasAlgorithm, RunResult, validate_evaluation_mode
from repro.solvers.policies import FlipPolicy, make_policy, validate_policy

__all__ = ["RESTART_SCHEDULES", "WalkSAT", "WalkSATConfig"]

#: Restart cutoff schedules accepted by ``WalkSATConfig.restart_schedule``.
RESTART_SCHEDULES: tuple[str, ...] = ("fixed", "luby")


@dataclasses.dataclass(frozen=True)
class WalkSATConfig:
    """Parameters of the WalkSAT solver family.

    Attributes
    ----------
    max_flips:
        Hard per-run flip budget; runs hitting it are reported as unsolved
        (censored observations).
    noise:
        Noise parameter of the configured policy.  For ``"walksat"``:
        probability of a random walk move when no free variable exists
        (``noise=0`` is deterministic greedy, ``noise=1`` a pure random
        walk over the picked clause).  For the Novelty family: probability
        of taking the second-best variable when the best one is the most
        recently flipped.  For ``"adaptive"``: the *initial* noise the
        online adaptation starts from.
    policy:
        Flip-picking policy: ``"walksat"`` (SKC, the default),
        ``"novelty"``, ``"novelty+"`` or ``"adaptive"`` — see
        :mod:`repro.solvers.policies`.
    walk_probability:
        Random-walk escape probability of ``"novelty+"`` (ignored by the
        other policies; Hoos 1999 recommends a small value).
    adaptive_theta, adaptive_phi:
        Adaptive-noise tuning of ``"adaptive"`` (ignored by the other
        policies): stagnation is declared after ``adaptive_theta *
        n_clauses`` flips without a new unsat-count minimum, and the noise
        moves by the relative step ``adaptive_phi`` (Hoos 2002 uses 1/6
        and 0.2).
    restart_after:
        Re-randomise the assignment every ``restart_after`` flips;
        ``None`` disables restarts.
    restart_schedule:
        Cutoff schedule when restarts are enabled: ``"fixed"`` (default)
        restarts every ``restart_after`` flips; ``"luby"`` scales the
        cutoffs by the Luby universal sequence (1, 1, 2, 1, 1, 2, 4, ...)
        of :func:`repro.luby.luby_sequence`, i.e. segment ``i``
        runs for ``restart_after * luby(i)`` flips — the optimal universal
        restart strategy of Luby, Sinclair & Zuckerman 1993.  Ignored when
        ``restart_after`` is ``None``.  Scalar and lockstep paths honour
        the schedule identically.
    evaluation:
        Evaluation path: ``"auto"`` (default) uses the incremental clause
        state — for SAT it wins at every instance size; ``"incremental"``
        demands it; ``"batch"`` forces the full re-evaluation oracle.
        Both paths produce bit-identical runs for a given seed and policy.
    """

    max_flips: int = 100_000
    noise: float = 0.5
    policy: str = "walksat"
    walk_probability: float = 0.01
    adaptive_theta: float = 1.0 / 6.0
    adaptive_phi: float = 0.2
    restart_after: int | None = None
    restart_schedule: str = "fixed"
    evaluation: str = "auto"

    def __post_init__(self) -> None:
        if self.max_flips < 1:
            raise ValueError(f"max_flips must be >= 1, got {self.max_flips}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise must be in [0, 1], got {self.noise}")
        validate_policy(self.policy)
        if not 0.0 <= self.walk_probability <= 1.0:
            raise ValueError(
                f"walk_probability must be in [0, 1], got {self.walk_probability}"
            )
        if self.adaptive_theta <= 0.0:
            raise ValueError(f"adaptive_theta must be positive, got {self.adaptive_theta}")
        if not 0.0 <= self.adaptive_phi <= 1.0:
            raise ValueError(f"adaptive_phi must be in [0, 1], got {self.adaptive_phi}")
        if self.restart_after is not None and self.restart_after < 1:
            raise ValueError(f"restart_after must be >= 1 or None, got {self.restart_after}")
        if self.restart_schedule not in RESTART_SCHEDULES:
            raise ValueError(
                f"restart_schedule must be one of {RESTART_SCHEDULES}, "
                f"got {self.restart_schedule!r}"
            )
        validate_evaluation_mode(self.evaluation)


class WalkSAT(LasVegasAlgorithm):
    """WalkSAT-family solver over a CNF formula (policy-pluggable)."""

    def __init__(self, formula: CNFFormula, config: WalkSATConfig | None = None) -> None:
        self.formula = formula
        self.config = config or WalkSATConfig()
        suffix = "" if self.config.policy == "walksat" else f"/{self.config.policy}"
        self.name = f"walksat[{formula.n_variables}v/{formula.n_clauses}c]{suffix}"

    # ------------------------------------------------------------------
    def _clause_path(self) -> IncrementalClausePath:
        # Every formula has the incremental tables, so "auto" and
        # "incremental" both take them.
        if self.config.evaluation == "batch":
            return BatchClausePath(self.formula)
        return IncrementalClausePath(self.formula)

    def _make_policy(self) -> FlipPolicy:
        """Fresh per-run policy object (policies are stateful)."""
        config = self.config
        return make_policy(
            config.policy,
            noise=config.noise,
            walk_probability=config.walk_probability,
            adaptive_theta=config.adaptive_theta,
            adaptive_phi=config.adaptive_phi,
            n_variables=self.formula.n_variables,
            n_clauses=self.formula.n_clauses,
        )

    def _run(self, rng: np.random.Generator) -> RunResult:
        formula = self.formula
        config = self.config

        path = self._clause_path()
        policy = self._make_policy()
        clause_variables = formula.clause_evaluator().clause_variables
        path.reinit(formula.random_assignment(rng))
        policy.start(path)
        flips = 0
        restarts = 0
        flips_since_restart = 0
        cutoff = vectorized.restart_cutoff(config.restart_after, config.restart_schedule, 0)

        while path.n_unsat > 0 and flips < config.max_flips:
            if cutoff is not None and flips_since_restart >= cutoff:
                path.reinit(formula.random_assignment(rng))
                policy.restart(path)
                restarts += 1
                flips_since_restart = 0
                cutoff = vectorized.restart_cutoff(
                    config.restart_after, config.restart_schedule, restarts
                )
                continue

            clause_index = path.unsat_clause(int(rng.integers(path.n_unsat)))
            chosen = policy.pick(path, clause_variables[clause_index], rng)

            path.flip(chosen)
            flips += 1
            flips_since_restart += 1
            policy.notify_flip(chosen, flips, path)

        solved = path.n_unsat == 0
        return RunResult(
            solved=solved,
            iterations=flips,
            runtime_seconds=0.0,
            solution=path.assignment if solved else None,
            restarts=restarts,
        )

    # ------------------------------------------------------------------
    def lockstep_supported(self) -> bool:
        """Whether :meth:`run_lockstep` batches this configuration.

        The lockstep kernel vectorises the SKC selection rule, covering
        the ``"walksat"`` and ``"adaptive"`` policies; the Novelty family
        tracks per-variable flip ages with a ranking step that has no
        batched implementation yet, so those configurations fall back to
        scalar runs (documented behaviour, not an error).
        """
        return self.config.policy in vectorized.LOCKSTEP_POLICIES

    def run_lockstep(self, seeds) -> list[RunResult]:
        """Run one independent walk per seed as a lockstep batch.

        Returns one :class:`RunResult` per seed, in seed order, each
        bit-identical (``solved``/``iterations``/``restarts``/``solution``/
        ``seed``) to ``self.run(seed)`` — the walks share one vectorised
        kernel call but consume per-walk RNG streams exactly as the scalar
        loop would (see :mod:`repro.sat.vectorized`).  Configurations the
        kernel does not vectorise (see :meth:`lockstep_supported`) are
        serviced by scalar runs, preserving the same contract.
        """
        if not self.lockstep_supported():
            return [self.run(int(seed)) for seed in seeds]
        return vectorized.run_lockstep(self.formula, self.config, list(seeds))

"""Campaign controllers: the paper's predictor driving live decisions.

The orchestrator executes every stage as a sequence of *rounds*.  Before a
round it asks the controller for a :class:`RoundPlan` (how many runs, at
what per-run budget, the recorded worker allocation); after the round it
feeds the completed runs back — always in stable index order, never in the
backend-dependent completion order — so every decision is a pure function
of the observation stream.  Same ``base_seed`` ⇒ same stream ⇒ identical
decision log on any backend at any worker count, which is what makes the
log *replayable*: :func:`repro.campaign.orchestrator.replay_decisions`
re-drives a saved report's stream through a fresh controller and must
reproduce the log bit for bit.

Three controllers are provided:

* :class:`StaticController` — plans once up front: one full-budget round of
  exactly the stage quota, i.e. one classic batch per stage, plus the
  recorded plan.  The baseline the adaptive controller is benchmarked
  against.  :class:`OffController` is the same plan under the default
  name ``off``.
* :class:`AdaptiveController` — re-plans after every round from streaming
  censoring-aware fits (:mod:`repro.stats.online`): it picks the restart
  cutoff minimising the empirical cost per solved run (runs censored at a
  reduced cutoff are *killed* and replaced by fresh-seed runs — restarts by
  reseeding), chooses the fixed-vs-Luby cutoff schedule from the fitted
  log-space dispersion (Luby's universal sequence hedges heavy tails), and
  logs (never applies) a worker allocation from the paper's multi-walk
  speed-up predictor (:func:`repro.multiwalk.simulate.simulate_multiwalk_speedups`)
  on the solved runtimes observed so far.  It counts *solved* observations
  toward the quota, which is what makes it finish censoring-heavy stages
  in less wall-clock than the static plan.

All decisions consume iteration counts and solved flags only — never
wall-clock runtimes — so the log is deterministic across hosts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.luby import luby_sequence
from repro.multiwalk.simulate import simulate_multiwalk_speedups
from repro.stats.online import StreamingCensoredExponential, StreamingLognormal

__all__ = [
    "AdaptiveController",
    "CONTROLLER_NAMES",
    "Controller",
    "Decision",
    "DecisionLog",
    "HEAVY_TAIL_LOG_SIGMA",
    "OffController",
    "RoundPlan",
    "StageRunRecord",
    "StaticController",
    "make_controller",
]

#: Controller names accepted by the orchestrator and the CLI.
CONTROLLER_NAMES: tuple[str, ...] = ("off", "static", "adaptive")

#: Fitted lognormal ``sigma`` above which a runtime distribution counts as
#: heavy-tailed: the adaptive controller's default fixed-vs-Luby threshold,
#: and the rule that makes the recipe profiler fit a lognormal.
HEAVY_TAIL_LOG_SIGMA: float = 1.0


@dataclasses.dataclass(frozen=True)
class StageRunRecord:
    """One completed run as the controller (and the report stream) sees it.

    ``budget`` is the per-run cutoff the round was issued at; a censored
    record with ``budget`` below the stage's full budget is a *killed* run.
    ``runtime_seconds`` rides along for the report only — controllers must
    never read it (wall-clock would break cross-backend determinism).
    """

    index: int
    seed: int
    iterations: int
    solved: bool
    budget: int
    runtime_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "index": int(self.index),
            "seed": int(self.seed),
            "iterations": int(self.iterations),
            "solved": bool(self.solved),
            "budget": int(self.budget),
            "runtime_seconds": float(self.runtime_seconds),
        }


@dataclasses.dataclass(frozen=True)
class RoundPlan:
    """What the controller wants executed next: ``n_runs`` at ``budget``.

    ``workers`` is the allocation decision's worker count — recorded in the
    log, never applied: every round runs on the campaign's one executor.
    ``note`` names the schedule segment the budget came from (``"probe"``,
    ``"fixed"``, ``"luby"``, ``"static"``).
    """

    round_index: int
    n_runs: int
    budget: int
    workers: int | None = None
    note: str = ""


@dataclasses.dataclass(frozen=True)
class Decision:
    """One appended decision-log entry (``seq`` is campaign-global)."""

    seq: int
    stage: str
    kind: str
    detail: Mapping[str, object]

    def as_dict(self) -> dict:
        return {"seq": self.seq, "stage": self.stage, "kind": self.kind, "detail": dict(self.detail)}


def _jsonify(value):
    """Normalise a detail value to what a JSON round-trip would return."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


class DecisionLog:
    """Append-only, JSON-normalised campaign decision log.

    Entries are normalised on append (numpy scalars to Python, tuples to
    lists, mapping keys to strings) so an in-memory log compares equal to
    the same log after a save/load round-trip — the property the replay
    determinism gate relies on.

    ``listener``, when given, receives each decision right after it is
    appended — the seam the campaign service streams live decision events
    through.  Listeners observe; they must not influence the campaign (a
    listener exception would abort it, which is the safe direction).
    """

    def __init__(self, listener: "Callable[[Decision], None] | None" = None) -> None:
        self.decisions: list[Decision] = []
        self._listener = listener

    def append(self, stage: str, kind: str, **detail) -> Decision:
        decision = Decision(
            seq=len(self.decisions), stage=stage, kind=kind, detail=_jsonify(detail)
        )
        self.decisions.append(decision)
        if self._listener is not None:
            self._listener(decision)
        return decision

    def as_dicts(self) -> list[dict]:
        return [decision.as_dict() for decision in self.decisions]

    def __len__(self) -> int:
        return len(self.decisions)


class Controller:
    """Round-planning protocol shared by the static and adaptive controllers.

    Lifecycle per stage: :meth:`begin_stage`, then alternate
    :meth:`plan_round` / :meth:`observe` until ``plan_round`` returns
    ``None`` (quota reached, or the issue ceiling
    ``max_issue_factor * quota`` hit — the give-up bound that keeps
    hopeless stages from looping forever).
    """

    name: str = "abstract"

    def __init__(self, *, max_issue_factor: int = 8) -> None:
        if max_issue_factor < 1:
            raise ValueError(f"max_issue_factor must be >= 1, got {max_issue_factor}")
        self.max_issue_factor = max_issue_factor
        self._stage = None
        self._log: DecisionLog | None = None
        self._issued = 0
        self._counted = 0
        self._round = 0

    # -- subclass hooks -------------------------------------------------
    def _on_begin_stage(self) -> None:
        """Reset per-stage model state and log the opening plan."""

    def _counts_toward_quota(self, record: StageRunRecord) -> bool:
        raise NotImplementedError

    def _ingest(self, record: StageRunRecord) -> None:
        """Update streaming fits from one observation (index order)."""

    def _plan(self, remaining: int, headroom: int) -> RoundPlan:
        raise NotImplementedError

    # -- protocol -------------------------------------------------------
    def params(self) -> dict:
        """Constructor parameters, recorded in the report for replay."""
        return {"max_issue_factor": self.max_issue_factor}

    @property
    def counted(self) -> int:
        return self._counted

    @property
    def issued(self) -> int:
        return self._issued

    def begin_stage(self, stage, log: DecisionLog) -> None:
        """Start a stage.  ``stage`` needs ``key``/``quota``/``budget``/
        ``base_seed``/``supports_cutoff`` — both :class:`StageSpec` and a
        saved :class:`~repro.campaign.report.StageReport` qualify, which is
        what lets replay run without solvers."""
        self._stage = stage
        self._log = log
        self._issued = 0
        self._counted = 0
        self._round = 0
        self._on_begin_stage()

    def plan_round(self) -> RoundPlan | None:
        stage = self._stage
        assert stage is not None and self._log is not None, "begin_stage() first"
        remaining = stage.quota - self._counted
        if remaining <= 0:
            return None
        headroom = self.max_issue_factor * stage.quota - self._issued
        if headroom <= 0:
            return None
        plan = self._plan(remaining, headroom)
        self._round += 1
        return plan

    def observe(self, record: StageRunRecord) -> None:
        self._issued += 1
        if self._counts_toward_quota(record):
            self._counted += 1
        self._ingest(record)


class StaticController(Controller):
    """Plan once up front, then execute it: the non-adaptive baseline.

    The plan is a single full-budget round of exactly the stage quota —
    the same seeds, budgets and cache address as one classic
    :func:`repro.engine.collect_batch` call per stage.
    """

    name = "static"

    def _on_begin_stage(self) -> None:
        stage = self._stage
        self._log.append(
            stage.key,
            "plan",
            controller=self.name,
            quota=stage.quota,
            budget=stage.budget,
            base_seed=stage.base_seed,
            schedule="fixed",
            cutoff=stage.budget,
            max_runs=self.max_issue_factor * stage.quota,
        )

    def _counts_toward_quota(self, record: StageRunRecord) -> bool:
        return True  # classic batch semantics: censored runs count too

    def _plan(self, remaining: int, headroom: int) -> RoundPlan:
        return RoundPlan(
            round_index=self._round,
            n_runs=min(remaining, headroom),
            budget=self._stage.budget,
            workers=None,
            note="static",
        )


class AdaptiveController(Controller):
    """Re-plan every round from streaming censoring-aware fits.

    Parameters
    ----------
    probe_runs:
        Size of round 0, issued at the full budget so the first fit sees
        uncensored (or honestly budget-censored) runtimes.
    max_round_runs:
        Ceiling on any later round, bounding how far a bad success-rate
        estimate can over-issue.
    efficiency_floor:
        Minimum predicted parallel efficiency (speed-up / workers) a worker
        count must keep to be allocated.
    candidate_workers:
        Worker counts the allocation decision chooses among.
    heavy_tail_log_sigma:
        Fitted lognormal ``sigma`` above which the cutoff schedule switches
        from fixed to Luby (heavier tail ⇒ hedge the cutoff).
    allocation_min_events, allocation_sims:
        Solved-run count required before the multi-walk predictor is
        consulted, and resampled parallel executions per candidate.
    """

    name = "adaptive"

    def __init__(
        self,
        *,
        probe_runs: int = 8,
        max_round_runs: int = 32,
        efficiency_floor: float = 0.5,
        candidate_workers: Sequence[int] = (1, 2, 4, 8),
        heavy_tail_log_sigma: float = HEAVY_TAIL_LOG_SIGMA,
        allocation_min_events: int = 4,
        allocation_sims: int = 16,
        max_issue_factor: int = 8,
    ) -> None:
        super().__init__(max_issue_factor=max_issue_factor)
        if probe_runs < 1:
            raise ValueError(f"probe_runs must be >= 1, got {probe_runs}")
        if max_round_runs < 1:
            raise ValueError(f"max_round_runs must be >= 1, got {max_round_runs}")
        self.probe_runs = probe_runs
        self.max_round_runs = max_round_runs
        self.efficiency_floor = efficiency_floor
        self.candidate_workers = tuple(sorted(int(c) for c in candidate_workers))
        self.heavy_tail_log_sigma = heavy_tail_log_sigma
        self.allocation_min_events = allocation_min_events
        self.allocation_sims = allocation_sims

    def params(self) -> dict:
        return {
            **super().params(),
            "probe_runs": self.probe_runs,
            "max_round_runs": self.max_round_runs,
            "efficiency_floor": self.efficiency_floor,
            "candidate_workers": list(self.candidate_workers),
            "heavy_tail_log_sigma": self.heavy_tail_log_sigma,
            "allocation_min_events": self.allocation_min_events,
            "allocation_sims": self.allocation_sims,
        }

    def _on_begin_stage(self) -> None:
        stage = self._stage
        self._exponential = StreamingCensoredExponential()
        self._lognormal = StreamingLognormal()
        self._solved_values: list[float] = []
        self._all_costs: list[float] = []
        self._killed = 0
        self._cutoff = stage.budget
        self._schedule = "fixed"
        self._luby_step = 0
        self._workers: int | None = None
        self._log.append(
            stage.key,
            "plan",
            controller=self.name,
            quota=stage.quota,
            budget=stage.budget,
            base_seed=stage.base_seed,
            probe_runs=min(self.probe_runs, stage.quota),
            supports_cutoff=bool(stage.supports_cutoff),
            max_runs=self.max_issue_factor * stage.quota,
        )

    def _counts_toward_quota(self, record: StageRunRecord) -> bool:
        return record.solved  # killed/censored runs are replaced, not counted

    def _ingest(self, record: StageRunRecord) -> None:
        iterations = float(record.iterations)
        self._exponential.update(iterations, censored=not record.solved)
        if record.solved and iterations > 0:
            self._lognormal.update(iterations)
        if record.solved:
            self._solved_values.append(iterations)
        elif record.budget < self._stage.budget:
            self._killed += 1  # censored at a reduced cutoff: a killed run
        self._all_costs.append(min(iterations, float(record.budget)))

    # -- decision helpers ----------------------------------------------
    def _refit(self) -> None:
        fit = self._exponential.fit()
        self._log.append(
            self._stage.key,
            "fit",
            runs=self._exponential.count,
            events=self._exponential.n_events,
            censored=self._exponential.n_censored,
            mean=None if fit is None else fit.mean(),
            shift=None if fit is None else fit.x0,
            log_sigma=self._lognormal.sigma,
        )

    def _choose_cutoff(self) -> int:
        """Cutoff minimising the empirical cost per solved run.

        ``cost(c) = sum_i min(v_i, c) / #{solved i with v_i <= c}`` over
        every observation so far; candidates are quantiles of the solved
        runtimes plus the full budget.  For a memoryless (exponential)
        distribution this is flat in ``c`` and the full budget wins the
        tie, i.e. restarts are only bought when the tail actually pays for
        them.  Runs already censored below a candidate make its cost a
        slight underestimate; the probe round and every at-budget round
        keep feeding unclipped evidence, so the bias cannot lock in.
        """
        stage = self._stage
        solved = np.asarray(self._solved_values, dtype=float)
        quantiles = np.quantile(solved, (0.5, 0.75, 0.9))
        candidates = sorted(
            {int(max(1.0, math.ceil(q))) for q in quantiles} | {int(stage.budget)}
        )
        values = np.asarray(self._all_costs, dtype=float)
        best: tuple[float, float] | None = None
        best_cutoff = int(stage.budget)
        best_cost = None
        for candidate in candidates:
            successes = int(np.count_nonzero(solved <= candidate))
            if successes == 0:
                continue
            cost = float(np.minimum(values, float(candidate)).sum()) / successes
            rank = (cost, -candidate)  # ties go to the larger (safer) cutoff
            if best is None or rank < best:
                best = rank
                best_cutoff = candidate
                best_cost = cost
        if best_cutoff != self._cutoff:
            self._log.append(
                self._stage.key,
                "cutoff",
                cutoff=best_cutoff,
                cost_per_success=best_cost,
                previous=self._cutoff,
            )
        return best_cutoff

    def _choose_schedule(self) -> str:
        sigma = self._lognormal.sigma
        schedule = (
            "luby"
            if sigma is not None and sigma > self.heavy_tail_log_sigma
            else "fixed"
        )
        if schedule != self._schedule:
            self._log.append(
                self._stage.key, "schedule", schedule=schedule, log_sigma=sigma
            )
        return schedule

    def _choose_workers(self) -> int | None:
        if len(self._solved_values) < self.allocation_min_events:
            return self._workers
        # The paper's predictor: simulated multi-walk speed-ups over the
        # solved runtimes observed so far.  Seeded from (stage, round) so
        # the resampling — and with it the decision — is a pure function
        # of the observation stream.
        rng = np.random.default_rng(
            (abs(int(self._stage.base_seed)), self._round, len(self._solved_values))
        )
        measured = simulate_multiwalk_speedups(
            np.asarray(self._solved_values, dtype=float),
            self.candidate_workers,
            n_parallel_runs=self.allocation_sims,
            rng=rng,
        )
        workers = self.candidate_workers[0]
        speedups = {}
        for candidate in self.candidate_workers:
            speedup = float(measured.speedup(candidate))
            speedups[str(candidate)] = speedup
            if speedup / candidate >= self.efficiency_floor:
                workers = candidate
        if workers != self._workers:
            self._log.append(
                self._stage.key, "allocation", workers=workers, predicted=speedups
            )
        return workers

    def _success_probability(self, budget: int) -> float:
        fit = self._exponential.fit()
        if fit is None:
            return 0.25  # nothing solved yet: issue optimistically but boundedly
        return float(min(1.0, max(0.05, float(fit.cdf(float(budget))))))

    # -- planning -------------------------------------------------------
    def _plan(self, remaining: int, headroom: int) -> RoundPlan:
        stage = self._stage
        if self._round == 0:
            n = min(stage.quota, self.probe_runs, headroom)
            return RoundPlan(
                round_index=0, n_runs=n, budget=stage.budget, workers=None, note="probe"
            )
        self._refit()
        if stage.supports_cutoff and self._solved_values:
            self._cutoff = self._choose_cutoff()
        if stage.supports_cutoff and self._cutoff < stage.budget:
            self._schedule = self._choose_schedule()
        else:
            self._schedule = "fixed"
        if self._schedule == "luby":
            multiplier = float(luby_sequence(self._luby_step + 1)[-1])
            self._luby_step += 1
            budget = int(min(self._cutoff * multiplier, stage.budget))
        else:
            budget = int(self._cutoff)
        self._workers = self._choose_workers()
        probability = self._success_probability(budget)
        n = min(int(math.ceil(remaining / probability)), self.max_round_runs, headroom)
        return RoundPlan(
            round_index=self._round,
            n_runs=max(1, n),
            budget=budget,
            workers=self._workers,
            note=self._schedule,
        )


class OffController(StaticController):
    """The default controller: the static plan under its own name.

    Takes no parameters, so its reports record none; its one round per
    stage is an ordinary content-addressed batch, like every round.
    """

    name = "off"

    def params(self) -> dict:
        return {}


def make_controller(name: str, params: Mapping[str, object] | None = None) -> Controller:
    """Instantiate a controller by name.

    ``params`` is the :meth:`Controller.params` mapping a report recorded,
    so replay reconstructs the exact controller that produced the log.
    """
    if name == "off" and params:
        raise ValueError("controller 'off' takes no parameters")
    factories = {"off": OffController, "static": StaticController, "adaptive": AdaptiveController}
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}"
        ) from None
    kwargs = dict(params or {})
    if "candidate_workers" in kwargs:
        kwargs["candidate_workers"] = tuple(kwargs["candidate_workers"])
    return factory(**kwargs)

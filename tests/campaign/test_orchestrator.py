"""The campaign orchestrator: execution, BUG-021, replay, determinism.

Synthetic solvers keep these fast; the solver's latent "iterations needed"
is a pure function of the seed, so kill-and-reseed rounds at different
budgets stay consistent and the decision log is a pure function of the
base seed — the property the cross-backend determinism tests pin.
"""

import multiprocessing

import numpy as np
import pytest

from repro.campaign import (
    AdaptiveController,
    CampaignError,
    CampaignReport,
    ReplayError,
    StageSpec,
    run_campaign,
    verify_report,
)
from repro.engine.core import collect_batch
from repro.sat.generators import clause_count_for_ratio, random_ksat
from repro.solvers.base import LasVegasAlgorithm, RunResult
from repro.solvers.walksat import WalkSAT, WalkSATConfig


class GeometricSolver(LasVegasAlgorithm):
    """Latent cost = 1 + Exp(scale); solved iff it fits the budget.

    The first rng draw decides the run, so a given seed has one latent
    cost regardless of the issued budget — exactly how a real Las Vegas
    solver behaves under kill-and-reseed.
    """

    name = "geometric"

    def __init__(self, budget: int, scale: float = 100.0):
        self.budget = int(budget)
        self.scale = float(scale)

    def _run(self, rng: np.random.Generator) -> RunResult:
        need = 1 + int(rng.exponential(self.scale))
        if need <= self.budget:
            return RunResult(solved=True, iterations=need, runtime_seconds=0.0)
        return RunResult(solved=False, iterations=self.budget, runtime_seconds=0.0)


class NeverSolves(LasVegasAlgorithm):
    name = "never-solves"

    def _run(self, rng: np.random.Generator) -> RunResult:
        return RunResult(solved=False, iterations=self.budget, runtime_seconds=0.0)

    def __init__(self, budget: int):
        self.budget = int(budget)


def _stage(key="S", quota=10, budget=400, base_seed=7, scale=100.0, **kwargs):
    defaults = dict(
        label=f"geom-{key}",
        kind="test",
        make_solver=lambda budget: GeometricSolver(budget, scale),
        quota=quota,
        base_seed=base_seed,
        budget=budget,
        emit_keys=(key,),
        supports_cutoff=True,
    )
    defaults.update(kwargs)
    return StageSpec(key=key, **defaults)


class TestOffController:
    def test_matches_collect_batch(self):
        stage = _stage()
        report = run_campaign([stage])
        batch = report.observations()["S"]
        reference = collect_batch(
            GeometricSolver(400), 10, base_seed=7, label="geom-S"
        )
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.solved, reference.solved)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)
        assert batch.label == reference.label

    def test_static_is_bit_identical_to_off(self):
        stages = [_stage("A", base_seed=1), _stage("B", base_seed=2, after=("A",))]
        off = run_campaign(stages).observations()
        static = run_campaign(stages, controller="static").observations()
        for key in off:
            np.testing.assert_array_equal(off[key].iterations, static[key].iterations)
            np.testing.assert_array_equal(off[key].seeds, static[key].seeds)
            np.testing.assert_array_equal(off[key].solved, static[key].solved)

    def test_emit_keys_fan_out(self):
        stage = _stage(emit_keys=("S", "S/alias"))
        observations = run_campaign([stage]).observations()
        assert set(observations) == {"S", "S/alias"}
        assert observations["S"] is observations["S/alias"]

    def test_records_plan_and_round_per_stage(self):
        report = run_campaign([_stage()])
        assert report.controller_params == {}
        kinds = [d["kind"] for d in report.decision_dicts()]
        assert kinds == ["plan", "round", "stage-complete"]

    def test_off_and_static_share_one_cache_file_per_stage(self, tmp_path, solver_runs):
        stages = [_stage("A", base_seed=1), _stage("B", base_seed=2, after=("A",))]
        off = run_campaign(stages, cache=tmp_path)
        assert len(solver_runs) == 20
        assert len(list(tmp_path.glob("observations-*.json"))) == 2
        solver_runs.clear()
        static = run_campaign(stages, controller="static", cache=tmp_path)
        assert solver_runs == []  # every stage was read back from its file
        assert len(list(tmp_path.glob("observations-*.json"))) == 2
        for key in ("A", "B"):
            assert static.stage(key).stream == off.stage(key).stream


class TestBug021:
    """Regression for BUG-021: a required stage with zero solved
    observations must hard-fail the campaign, controller or not."""

    def _hopeless(self, **kwargs):
        return _stage(
            make_solver=lambda budget: NeverSolves(budget), quota=5, **kwargs
        )

    @pytest.mark.parametrize("controller", ["off", "static", "adaptive"])
    def test_required_stage_with_zero_solved_fails(self, controller):
        with pytest.raises(CampaignError, match="zero solved"):
            run_campaign([self._hopeless()], controller=controller)

    def test_partial_report_records_the_failure(self):
        with pytest.raises(CampaignError) as excinfo:
            run_campaign([self._hopeless()])
        report = excinfo.value.report
        assert report.failed_stage == "S"
        assert "zero solved" in report.failure_reason
        kinds = [d["kind"] for d in report.decision_dicts()]
        assert "stage-failed" in kinds

    def test_later_stages_are_not_executed_after_a_failure(self):
        calls = []

        def tracking_solver(budget):
            calls.append(budget)
            return GeometricSolver(budget)

        stages = [
            self._hopeless(),
            _stage("T", base_seed=9, make_solver=tracking_solver, after=("S",)),
        ]
        with pytest.raises(CampaignError):
            run_campaign(stages)
        assert calls == []

    def test_optional_stage_does_not_fail_the_campaign(self):
        report = run_campaign([self._hopeless(required=False)])
        assert report.failed_stage is None
        assert report.stage("S").n_solved == 0

    def test_enforce_required_false_is_the_collectors_mode(self):
        report = run_campaign([self._hopeless()], enforce_required=False)
        assert report.failed_stage is None
        batch = report.observations()["S"]
        assert not batch.solved.any()  # the all-censored batch is the answer


class TestAdaptiveOrchestration:
    def test_reaches_quota_in_solved_runs_with_reseeding(self):
        # scale 3x the budget: ~72% of runs censor at the full budget.
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        report = run_campaign([stage], controller="adaptive")
        stage_report = report.stage("S")
        assert stage_report.n_solved >= 8
        assert stage_report.n_issued > 8  # censored runs were replaced

    def test_decision_log_is_deterministic_across_runs_and_backends(self):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        logs = [
            run_campaign([stage], controller="adaptive").decision_dicts(),
            run_campaign([stage], controller="adaptive").decision_dicts(),
            run_campaign(
                [stage], controller="adaptive", backend="thread", workers=4
            ).decision_dicts(),
        ]
        assert logs[0] == logs[1] == logs[2]

    def test_run_streams_are_deterministic_too(self):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        a = run_campaign([stage], controller="adaptive").stage("S")
        b = run_campaign(
            [stage], controller="adaptive", backend="thread", workers=2
        ).stage("S")
        assert [r.as_dict() | {"runtime_seconds": 0.0} for r in a.stream] == [
            r.as_dict() | {"runtime_seconds": 0.0} for r in b.stream
        ]

    def test_every_round_is_cached(self, tmp_path, solver_runs):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        cache = tmp_path / "cache"
        first = run_campaign([stage], controller="adaptive", cache=cache)
        rounds = [d for d in first.decision_dicts() if d["kind"] == "round"]
        assert len(rounds) > 1  # probe plus later, stream-extending rounds
        assert len(solver_runs) == first.stage("S").n_issued
        files = sorted(cache.glob("observations-*.json"))
        assert len(files) == len(rounds)  # one file per round decision
        solver_runs.clear()
        second = run_campaign([stage], controller="adaptive", cache=cache)
        assert solver_runs == []  # every round was a cache hit
        assert sorted(cache.glob("observations-*.json")) == files
        assert second.decision_dicts() == first.decision_dicts()
        # runtime_seconds included: the stream is the cached batches'.
        assert [r.as_dict() for r in second.stage("S").stream] == [
            r.as_dict() for r in first.stage("S").stream
        ]
        first.save(tmp_path / "first.json")
        second.save(tmp_path / "second.json")
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_later_round_progress_counts_along_the_stream(self, tmp_path):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        cold, warm = [], []
        report = run_campaign([stage], controller="adaptive", cache=tmp_path, progress=cold.append)
        run_campaign([stage], controller="adaptive", cache=tmp_path, progress=warm.append)
        rounds = [d["detail"] for d in report.decision_dicts() if d["kind"] == "round"]
        ends, issued = [], 0
        for detail in rounds:
            issued += detail["n_runs"]
            ends.append(issued)
        assert sorted(e.index for e in cold) == list(range(issued))
        assert [e.total for e in cold if e.completed == e.total] == ends
        # A warm round emits one event, for its last run in the stream.
        assert [(e.index, e.completed, e.total) for e in warm] == [(n - 1, n, n) for n in ends]

    def test_controller_instance_passthrough(self):
        stage = _stage(quota=6, budget=400)
        controller = AdaptiveController(probe_runs=3, max_round_runs=6)
        report = run_campaign([stage], controller=controller)
        assert report.controller == "adaptive"
        assert report.controller_params["probe_runs"] == 3


def _sat_stage(budget=300):
    """Three adaptive rounds on a small uniform 3-SAT instance (probe, a
    full-budget round, then a cut-off round on two allocated workers).
    WalkSAT pickles into spawned workers, unlike the synthetic solvers."""
    rng = np.random.default_rng((20130813, 0x5AA))
    formula = random_ksat(30, clause_count_for_ratio(30, 4.2), 3, rng=rng)
    return StageSpec(
        key="SAT",
        label="uniform 3-SAT 30@4.2",
        kind="test",
        make_solver=lambda budget: WalkSAT(formula, WalkSATConfig(max_flips=budget, noise=0.1)),
        quota=8,
        base_seed=2,
        budget=budget,
        emit_keys=("SAT",),
        supports_cutoff=True,
    )


def _deterministic_stream(report):
    return [r.as_dict() | {"runtime_seconds": 0.0} for r in report.stage("SAT").stream]


class TestProcessPoolLifecycle:
    """One warm pool per campaign, never resized, closed on every exit path."""

    def _controller(self, **kwargs):
        return AdaptiveController(candidate_workers=(1, 2), **kwargs)

    def test_adaptive_campaign_builds_one_pool(self, spawned_pools):
        pooled = run_campaign(
            [_sat_stage()], controller=self._controller(), backend="process", workers=2
        )
        assert multiprocessing.active_children() == []
        rounds = [d for d in pooled.decision_dicts() if d["kind"] == "round"]
        assert len(rounds) == 3
        assert spawned_pools == [2]  # every round ran on the same pool
        serial = run_campaign([_sat_stage()], controller=self._controller())
        assert pooled.decision_dicts() == serial.decision_dicts()
        assert _deterministic_stream(pooled) == _deterministic_stream(serial)

    def test_allocation_is_recorded_not_applied(self, spawned_pools):
        # No worker count keeps an efficiency of 2, so the allocation
        # falls back to the smallest candidate once the predictor runs.
        controller = self._controller(efficiency_floor=2.0)
        report = run_campaign([_sat_stage()], controller=controller, backend="process", workers=2)
        allocations = [d["detail"]["workers"] for d in report.decision_dicts()
                       if d["kind"] == "allocation"]
        assert allocations == [1]
        assert spawned_pools == [2]  # the pool is never resized
        assert multiprocessing.active_children() == []
        serial = run_campaign([_sat_stage()], controller=self._controller(efficiency_floor=2.0))
        assert report.decision_dicts() == serial.decision_dicts()

    def test_campaign_error_leaves_no_workers(self, spawned_pools):
        # A one-flip budget never satisfies the formula: BUG-021 fires.
        with pytest.raises(CampaignError, match="zero solved"):
            run_campaign([_sat_stage(budget=1)], controller=self._controller(),
                         backend="process", workers=2)
        assert spawned_pools == [2]
        assert multiprocessing.active_children() == []


class TestReplayAndReport:
    def _report(self, controller="adaptive"):
        stage = _stage(quota=8, budget=100, scale=300.0, base_seed=3)
        return run_campaign([stage], controller=controller)

    @pytest.mark.parametrize("controller", ["off", "static", "adaptive"])
    def test_save_load_verify_round_trip(self, controller, tmp_path):
        report = self._report(controller)
        path = report.save(tmp_path / "report.json")
        loaded = CampaignReport.load(path)
        assert loaded.as_dict() == report.as_dict()
        assert verify_report(loaded) == len(loaded.decisions)

    def test_failed_campaign_report_round_trips(self, tmp_path):
        stage = _stage(make_solver=lambda budget: NeverSolves(budget), quota=4)
        with pytest.raises(CampaignError) as excinfo:
            run_campaign([stage])
        path = excinfo.value.report.save(tmp_path / "failed.json")
        loaded = CampaignReport.load(path)
        assert loaded.failed_stage == "S"
        assert verify_report(loaded) == len(loaded.decisions)

    def test_tampered_stream_fails_verification(self, tmp_path):
        report = self._report()
        payload = report.as_dict()
        # Flip one observation: the re-driven controller must diverge.
        target = payload["stages"][0]["stream"]
        solved = next(r for r in target if r["solved"])
        solved["iterations"] = solved["iterations"] * 10 + 17
        tampered = CampaignReport.from_dict(payload)
        with pytest.raises(ReplayError):
            verify_report(tampered)

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(ValueError, match="format"):
            CampaignReport.from_dict({"format": "something-else"})

    def test_v1_report_rejected(self):
        # v1 `off` logs lack the plan/round decisions every v2 log replays.
        payload = self._report("off").as_dict()
        payload["format"] = "repro-campaign-report-v1"
        with pytest.raises(ValueError, match="format"):
            CampaignReport.from_dict(payload)


class TestDryRun:
    def test_plans_without_executing(self):
        def exploding_solver(budget):
            raise AssertionError("dry run must not build solvers")

        stages = [
            _stage("A", base_seed=1, make_solver=exploding_solver),
            _stage("B", base_seed=2, make_solver=exploding_solver, after=("A",)),
        ]
        report = run_campaign(stages, controller="adaptive", dry_run=True)
        assert report.dry_run
        assert report.observations() == {}
        kinds = [d["kind"] for d in report.decision_dicts()]
        assert kinds == ["dry-run-plan", "dry-run-plan"]
        assert verify_report(report) == 2

    def test_dry_run_is_deterministic(self):
        stages = [_stage("A", base_seed=1), _stage("B", base_seed=2)]
        a = run_campaign(stages, dry_run=True).as_dict()
        b = run_campaign(stages, dry_run=True).as_dict()
        assert a == b

"""Controllers as pure functions of the observation stream.

These tests drive controllers by hand (no engine, no solvers): feed a
synthetic record stream through begin_stage/plan_round/observe and pin the
planning rules, the quota semantics, and the decision-log determinism the
replay gate relies on.
"""

import json

import numpy as np
import pytest

from repro.campaign.controller import (
    CONTROLLER_NAMES,
    AdaptiveController,
    Controller,
    DecisionLog,
    StageRunRecord,
    StaticController,
    make_controller,
)
from repro.campaign.stages import StageSpec


def _stage(quota=10, budget=1000, base_seed=7, supports_cutoff=True):
    return StageSpec(
        key="S",
        label="synthetic",
        kind="test",
        make_solver=lambda budget: None,
        quota=quota,
        base_seed=base_seed,
        budget=budget,
        emit_keys=("S",),
        supports_cutoff=supports_cutoff,
    )


def _drive(controller, stage, outcomes):
    """Run the plan/observe loop against a deterministic outcome oracle.

    ``outcomes(index, budget)`` returns (iterations, solved) for the run at
    the given stable index under the given per-run budget.
    """
    log = DecisionLog()
    controller.begin_stage(stage, log)
    records = []
    while (plan := controller.plan_round()) is not None:
        for offset in range(plan.n_runs):
            index = len(records)
            iterations, solved = outcomes(index, plan.budget)
            record = StageRunRecord(
                index=index,
                seed=1000 + index,
                iterations=iterations,
                solved=solved,
                budget=plan.budget,
            )
            controller.observe(record)
            records.append(record)
    return records, log


class TestMakeController:
    def test_off_is_the_static_plan_without_params(self):
        controller = make_controller("off")
        assert isinstance(controller, Controller)
        assert isinstance(controller, StaticController)
        assert controller.name == "off"
        assert controller.params() == {}

    def test_off_rejects_params(self):
        with pytest.raises(ValueError, match="takes no parameters"):
            make_controller("off", {"probe_runs": 4})

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown controller"):
            make_controller("turbo")

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_params_round_trip(self, name):
        controller = make_controller(name)
        rebuilt = make_controller(name, controller.params())
        assert rebuilt.params() == controller.params()

    def test_candidate_workers_list_from_json(self):
        controller = make_controller("adaptive", {"candidate_workers": [1, 2]})
        assert controller.candidate_workers == (1, 2)


class TestStaticController:
    def test_one_full_budget_round_of_exactly_the_quota(self):
        stage = _stage(quota=10, budget=500)
        records, log = _drive(
            StaticController(), stage, lambda i, b: (b, False)  # everything censored
        )
        # Classic batch semantics: censored runs count toward the quota,
        # one round, full budget — the same runs `off` executes.
        assert len(records) == 10
        assert all(r.budget == 500 for r in records)
        kinds = [d.kind for d in log.decisions]
        assert kinds == ["plan"]
        plan = log.decisions[0].detail
        assert plan["controller"] == "static"
        assert plan["cutoff"] == 500 and plan["schedule"] == "fixed"


class TestAdaptiveController:
    def test_probe_round_first_at_full_budget(self):
        stage = _stage(quota=20, budget=1000)
        controller = AdaptiveController(probe_runs=8)
        log = DecisionLog()
        controller.begin_stage(stage, log)
        plan = controller.plan_round()
        assert plan.round_index == 0
        assert plan.n_runs == 8
        assert plan.budget == 1000
        assert plan.note == "probe"

    def test_counts_solved_only_and_reissues(self):
        stage = _stage(quota=6, budget=1000)
        # Even indices solve quickly; odd ones censor at the issued budget.
        records, log = _drive(
            AdaptiveController(probe_runs=4, max_round_runs=8),
            stage,
            lambda i, b: (50, True) if i % 2 == 0 else (b, False),
        )
        solved = sum(1 for r in records if r.solved)
        assert solved >= stage.quota  # quota is solved runs, not issued runs
        assert len(records) > stage.quota  # censored runs were replaced

    def test_gives_up_at_the_issue_ceiling(self):
        stage = _stage(quota=4, budget=100)
        controller = AdaptiveController(probe_runs=4, max_issue_factor=3)
        records, log = _drive(controller, stage, lambda i, b: (b, False))  # hopeless
        assert len(records) == 3 * 4  # max_issue_factor * quota, then stop
        assert controller.counted == 0

    def test_cutoff_tie_goes_to_the_full_budget(self):
        """Constant runtimes make every candidate's cost-per-success equal;
        the tie must resolve to the full budget (no restarts bought)."""
        stage = _stage(quota=12, budget=10_000)
        records, log = _drive(
            AdaptiveController(probe_runs=8), stage, lambda i, b: (100, True)
        )
        assert [d for d in log.decisions if d.kind == "cutoff"] == []
        assert all(r.budget == stage.budget for r in records)

    def test_kills_the_tail_on_a_heavy_tailed_stream(self, rng):
        """A bimodal stream (fast mode + hopeless tail) should buy restarts:
        the cutoff drops below the stage budget and runs get killed."""
        stage = _stage(quota=12, budget=10_000)
        fast = rng.integers(10, 80, size=4096)
        slow_mask = rng.random(4096) < 0.4  # 40% hopeless tail

        def outcomes(i, budget):
            if slow_mask[i]:
                return (budget, False)  # never solves within any budget
            need = int(fast[i])
            return (need, True) if need <= budget else (budget, False)

        records, log = _drive(AdaptiveController(probe_runs=8), stage, outcomes)
        cutoff_decisions = [d for d in log.decisions if d.kind == "cutoff"]
        assert cutoff_decisions, "expected the cutoff to drop below the budget"
        assert cutoff_decisions[-1].detail["cutoff"] < stage.budget
        killed = [r for r in records if not r.solved and r.budget < stage.budget]
        assert killed, "expected censored-at-cutoff (killed) runs"
        assert sum(1 for r in records if r.solved) >= stage.quota

    def test_decisions_never_read_wall_clock(self):
        """Identical streams with different runtime_seconds ⇒ identical log."""
        stage = _stage(quota=6, budget=1000)

        def run(runtime):
            controller = AdaptiveController(probe_runs=4)
            log = DecisionLog()
            controller.begin_stage(stage, log)
            n = 0
            while (plan := controller.plan_round()) is not None:
                for _ in range(plan.n_runs):
                    controller.observe(
                        StageRunRecord(
                            index=n,
                            seed=n,
                            iterations=30 + 7 * (n % 5),
                            solved=True,
                            budget=plan.budget,
                            runtime_seconds=runtime * (n + 1),
                        )
                    )
                    n += 1
            return log.as_dicts()

        assert run(0.0) == run(123.456)

    def test_same_stream_same_log(self, rng):
        stage = _stage(quota=8, budget=5000)
        draws = (1.0 + rng.exponential(800.0, size=4096)).astype(int)

        def outcomes(i, budget):
            need = int(draws[i])
            return (need, True) if need <= budget else (budget, False)

        _, log_a = _drive(AdaptiveController(), stage, outcomes)
        _, log_b = _drive(AdaptiveController(), stage, outcomes)
        assert log_a.as_dicts() == log_b.as_dicts()


class TestDecisionLog:
    def test_normalises_numpy_and_tuples_on_append(self):
        log = DecisionLog()
        log.append(
            "S",
            "fit",
            mean=np.float64(3.5),
            runs=np.int64(7),
            flag=np.bool_(True),
            shape=(1, 2),
            nested={1: (np.int32(9),)},
        )
        detail = log.decisions[0].detail
        assert detail == {
            "mean": 3.5,
            "runs": 7,
            "flag": True,
            "shape": [1, 2],
            "nested": {"1": [9]},
        }
        # The whole point: a JSON round-trip is the identity.
        dumped = json.loads(json.dumps(log.as_dicts()))
        assert dumped == log.as_dicts()

    def test_seq_is_append_order(self):
        log = DecisionLog()
        log.append("A", "x")
        log.append("B", "y")
        assert [d.seq for d in log.decisions] == [0, 1]
        assert len(log) == 2

"""Benches for the campaign orchestrator and its controllers.

Three questions, all recorded into ``BENCH_results.json``:

* What does routing a classic campaign through the orchestrator *cost*?
  The ``off``/``static`` controllers run the exact same solver work as the
  pre-orchestrator collectors, so any extra wall-clock is pure control
  overhead — measured per run on a cheap synthetic stage where solver time
  cannot hide it.
* Does the adaptive controller *pay* on the workload it was built for?  A
  censoring-heavy SAT stage (uniform 3-SAT at the threshold ratio, low
  WalkSAT noise so runs stagnate, tight flip budget) is collected to the
  same solved-observation quota under the static plan and under adaptive
  control; the static arm's wall-clock is normalised to the quota
  (``static_seconds * quota / static_solved``) so both arms price the same
  deliverable.  The >= 1.0x gate is enforced with ``REPRO_ASSERT_SPEEDUP=1``
  (hosted runners keep it advisory, like the other speedup gates).
* Does the process backend beat serial on that adaptive stage?  Every
  adaptive round of one campaign runs on one warm 2-worker pool, so the
  ratio prices one pool start plus dispatch against 2-way parallel
  solver time (advisory >= 1.0x gate under ``REPRO_ASSERT_SPEEDUP=1``).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.campaign import AdaptiveController, StageSpec, run_campaign
from repro.sat.generators import clause_count_for_ratio, random_ksat
from repro.solvers.base import LasVegasAlgorithm, RunResult
from repro.solvers.walksat import WalkSAT, WalkSATConfig


class CheapSolver(LasVegasAlgorithm):
    """Near-zero solver time: every second is controller/engine overhead."""

    name = "cheap"

    def __init__(self, budget: int):
        self.budget = int(budget)

    def _run(self, rng: np.random.Generator) -> RunResult:
        return RunResult(solved=True, iterations=int(rng.integers(1, 50)), runtime_seconds=0.0)


def _cheap_stage(quota: int) -> StageSpec:
    return StageSpec(
        key="S",
        label="cheap",
        kind="bench",
        make_solver=lambda budget: CheapSolver(budget),
        quota=quota,
        base_seed=31,
        budget=1000,
        emit_keys=("S",),
        supports_cutoff=True,
    )


#: The censoring-heavy workload: the tiny profile's uniform 3-SAT draw at
#: the threshold ratio (satisfiable but hard at the default base seed; the
#: n=100 draw at this seed is unsatisfiable, so n=50 it is), solved with
#: low-noise WalkSAT so a large fraction of runs stagnates — the regime
#: where killing hopeless runs and reseeding actually buys wall-clock.
SAT_N = 50
SAT_RATIO = 4.2
SAT_NOISE = 0.1
SAT_BUDGET = 20_000
SAT_QUOTA = 12
#: The process-vs-serial arm: a larger quota (more adaptive rounds) on
#: two workers, with the allocation choosing between one and two.
PROCESS_QUOTA = 24
PROCESS_WORKERS = 2


def _heavy_tail_stage() -> StageSpec:
    rng = np.random.default_rng((20130813, 0x5AA))  # the tiny-profile draw
    formula = random_ksat(SAT_N, clause_count_for_ratio(SAT_N, SAT_RATIO), 3, rng=rng)

    def make_solver(budget: int) -> WalkSAT:
        return WalkSAT(formula, WalkSATConfig(max_flips=budget, noise=SAT_NOISE))

    return StageSpec(
        key="SAT",
        label=f"uniform 3-SAT {SAT_N}@{SAT_RATIO:g} [noise={SAT_NOISE:g}]",
        kind="bench",
        make_solver=make_solver,
        quota=SAT_QUOTA,
        base_seed=20130816,
        budget=SAT_BUDGET,
        emit_keys=("SAT",),
        supports_cutoff=True,
    )


def _stream_flips(stage_report) -> int:
    return sum(min(r.iterations, r.budget) for r in stage_report.stream)


@pytest.mark.benchmark(group="campaign-overhead")
def test_controller_overhead_per_run(benchmark, bench_results):
    """Orchestrator + controller cost per run, solver time excluded.

    ``off`` is the baseline (the plain engine path), ``static`` adds the
    decision plumbing for identical runs, ``adaptive`` adds per-round
    refits.  Recorded per controller so the trend is comparable as the
    controllers grow.
    """
    quota = 400
    seconds: dict[str, float] = {}
    issued: dict[str, int] = {}
    for controller in ("off", "static", "adaptive"):
        start = time.perf_counter()
        report = run_campaign([_cheap_stage(quota)], controller=controller)
        seconds[controller] = time.perf_counter() - start
        issued[controller] = report.stage("S").n_issued

    def run_static():
        return run_campaign([_cheap_stage(quota)], controller="static")

    benchmark.pedantic(run_static, rounds=1, iterations=1, warmup_rounds=0)
    for controller in ("static", "adaptive"):
        overhead = (seconds[controller] - seconds["off"]) / issued[controller]
        bench_results.record(
            f"campaign-overhead[{controller}]",
            "controller_overhead_seconds_per_run",
            max(overhead, 0.0),
            quota=quota,
            issued=issued[controller],
            off_seconds=seconds["off"],
            controller_seconds=seconds[controller],
        )
    print(
        "\ncampaign-overhead: "
        + " ".join(
            f"{name}={seconds[name]:.3f}s/{issued[name]}runs"
            for name in ("off", "static", "adaptive")
        )
    )


@pytest.mark.benchmark(group="campaign-adaptive")
def test_adaptive_beats_static_on_censoring_heavy_sat(benchmark, bench_results):
    """The acceptance workload: adaptive vs static to the same solved quota.

    Static issues the classic full-budget batch and burns the whole budget
    on every stagnated run; adaptive probes, drops the cutoff, kills the
    tail and reseeds.  Both wall-clocks are normalised to ``SAT_QUOTA``
    solved observations.
    """
    stage = _heavy_tail_stage()

    start = time.perf_counter()
    static = run_campaign([stage], controller="static", enforce_required=False)
    static_seconds = time.perf_counter() - start
    static_stage = static.stage("SAT")
    assert static_stage.n_solved > 0, "workload must be solvable for the comparison"
    static_normalized = static_seconds * SAT_QUOTA / static_stage.n_solved

    def run_adaptive():
        return run_campaign([stage], controller="adaptive")

    adaptive = benchmark.pedantic(run_adaptive, rounds=1, iterations=1, warmup_rounds=0)
    adaptive_seconds = benchmark.stats.stats.mean
    adaptive_stage = adaptive.stage("SAT")
    assert adaptive_stage.n_solved >= SAT_QUOTA  # adaptive must reach the quota

    speedup = static_normalized / adaptive_seconds if adaptive_seconds > 0 else float("inf")
    static_fps = _stream_flips(static_stage) / static_stage.n_solved
    adaptive_fps = _stream_flips(adaptive_stage) / adaptive_stage.n_solved
    bench_results.record(
        "campaign-adaptive[censoring-heavy-sat]",
        "wall_clock_speedup_vs_static",
        speedup,
        quota=SAT_QUOTA,
        budget=SAT_BUDGET,
        noise=SAT_NOISE,
        static_seconds=static_seconds,
        static_solved=static_stage.n_solved,
        static_normalized_seconds=static_normalized,
        adaptive_seconds=adaptive_seconds,
        adaptive_issued=adaptive_stage.n_issued,
        adaptive_killed=adaptive_stage.n_killed,
    )
    bench_results.record(
        "campaign-adaptive[censoring-heavy-sat]",
        "flips_per_solved_ratio_static_over_adaptive",
        static_fps / adaptive_fps,
        static_flips_per_solved=static_fps,
        adaptive_flips_per_solved=adaptive_fps,
    )
    print(
        f"\ncampaign-adaptive: static {static_normalized:.2f}s (normalized) vs "
        f"adaptive {adaptive_seconds:.2f}s -> {speedup:.2f}x; "
        f"flips/solved {static_fps:.0f} vs {adaptive_fps:.0f}"
    )
    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert speedup >= 1.0, (
            f"adaptive control should not lose to the static plan on the "
            f"censoring-heavy stage, got {speedup:.2f}x"
        )
        assert adaptive_fps <= static_fps, (
            f"adaptive should spend fewer flips per solved observation, got "
            f"{adaptive_fps:.0f} vs {static_fps:.0f}"
        )


@pytest.mark.benchmark(group="campaign-speedup")
def test_adaptive_process_vs_serial(benchmark, bench_results):
    """The adaptive SAT stage on a warm process pool against serial.

    Both arms make the same decisions on the same run stream (asserted),
    so the ratio is pure execution: pool start, dispatch and 2-way
    parallel solver time against one in-process loop.
    """
    stage = dataclasses.replace(_heavy_tail_stage(), quota=PROCESS_QUOTA)

    def campaign(backend, workers):
        controller = AdaptiveController(candidate_workers=(1, PROCESS_WORKERS))
        return run_campaign([stage], controller=controller, backend=backend, workers=workers)

    start = time.perf_counter()
    serial = campaign("serial", None)
    serial_seconds = time.perf_counter() - start
    pooled = benchmark.pedantic(
        campaign, args=("process", PROCESS_WORKERS), rounds=1, iterations=1, warmup_rounds=0
    )
    process_seconds = benchmark.stats.stats.mean
    assert pooled.decision_dicts() == serial.decision_dicts()
    rounds = sum(1 for d in serial.decision_dicts() if d["kind"] == "round")

    speedup = serial_seconds / process_seconds if process_seconds > 0 else float("inf")
    bench_results.record(
        "campaign-speedup[adaptive-process-vs-serial]",
        "wall_clock_speedup_vs_serial",
        speedup,
        workers=PROCESS_WORKERS,
        quota=PROCESS_QUOTA,
        budget=SAT_BUDGET,
        rounds=rounds,
        serial_seconds=serial_seconds,
        process_seconds=process_seconds,
    )
    print(
        f"\ncampaign-speedup: serial {serial_seconds:.2f}s vs process[{PROCESS_WORKERS}] "
        f"{process_seconds:.2f}s over {rounds} rounds -> {speedup:.2f}x"
    )
    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert speedup >= 1.0, (
            f"a warm {PROCESS_WORKERS}-worker pool should not lose to serial on the "
            f"adaptive SAT stage, got {speedup:.2f}x"
        )

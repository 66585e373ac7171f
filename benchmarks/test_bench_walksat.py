"""Benches for the incremental WalkSAT engine: flips/second per path × policy.

Because the incremental clause state and the batch oracle are bit-identical
(same flip sequence for a given seed and policy), the wall-clock ratio of
the two collections IS the flips/second ratio.  The ISSUE-3 acceptance
target — extended by ISSUE-5 to *every* registered flip policy — is >= 5x
flips/second on planted 3-SAT with n=250 variables at clause ratio 4.2,
enforced on demand via ``REPRO_ASSERT_SPEEDUP=1`` (mirroring the engine
and delta-kernel gates: hosted runners are too noisy to gate
unconditionally); the per-instance/per-policy ratios are printed either
way so PRs can track the trend.

Expected shape of the numbers: the batch path pays O(k·m·w) full literal-
matrix rebuilds per flip, the incremental path O(occurrences of the
flipped variable); the ratio therefore grows with the clause count
(measured on a 2-vCPU container: ~24x at n=100, ~51x at n=250, ~115x at
n=500 for the SKC policy; the incremental path runs at about 50k-85k
flips/s at every size, so the ratio tracks the batch path's cost).

The last bench records, ungated, the scalar flips/second on the perfbench
``adaptive-process`` formula, the hot loop that workload spends its time in.
"""

import os
import time

import numpy as np
import pytest

from repro.sat import random_ksat, random_planted_ksat
from repro.sat.generators import clause_count_for_ratio
from repro.solvers.policies import POLICIES
from repro.solvers.walksat import WalkSAT, WalkSATConfig

from benchmarks.conftest import print_once

#: Clause-to-variable ratio of every bench instance (just under the 3-SAT
#: phase transition at ~4.27, the heavy-tailed region the paper targets).
RATIO = 4.2

#: (instance id, n_variables, per-run flip budget, number of seeded runs).
INSTANCES = [
    ("3sat-100", 100, 3_000, 4),
    ("3sat-250", 250, 2_000, 3),
    ("3sat-500", 500, 1_000, 2),
]


def _make_instance(n_variables: int):
    n_clauses = int(round(RATIO * n_variables))
    formula, _planted = random_planted_ksat(
        n_variables, n_clauses, rng=np.random.default_rng(n_variables)
    )
    return formula


def _flips_per_second(formula, mode: str, budget: int, n_runs: int, policy: str = "walksat"):
    config = WalkSATConfig(max_flips=budget, evaluation=mode, policy=policy)
    solver = WalkSAT(formula, config)
    total_flips = 0
    start = time.perf_counter()
    for seed in range(n_runs):
        total_flips += solver.run(seed).iterations
    elapsed = time.perf_counter() - start
    return total_flips, total_flips / elapsed


@pytest.mark.benchmark(group="walksat-throughput")
@pytest.mark.parametrize("instance", INSTANCES, ids=[spec[0] for spec in INSTANCES])
def test_incremental_vs_batch_throughput(benchmark, instance, request, bench_results):
    label, n_variables, budget, n_runs = instance
    formula = _make_instance(n_variables)
    batch_flips, batch_fps = _flips_per_second(formula, "batch", budget, n_runs)

    def incremental():
        return _flips_per_second(formula, "incremental", budget, n_runs)

    incremental_flips, incremental_fps = benchmark.pedantic(
        incremental, rounds=1, iterations=1, warmup_rounds=0
    )
    # Bit-identical flip sequences: same total work on both paths.
    assert incremental_flips == batch_flips
    bench_results.record(
        f"walksat-throughput[{label}]",
        "incremental_vs_batch_speedup",
        incremental_fps / batch_fps,
        instance=label,
        incremental_flips_per_second=incremental_fps,
        batch_flips_per_second=batch_fps,
    )
    print_once(
        request,
        f"walksat-throughput[{label}]: incremental {incremental_fps:,.0f} flips/s "
        f"vs batch {batch_fps:,.0f} flips/s -> {incremental_fps / batch_fps:.2f}x",
    )


@pytest.mark.benchmark(group="walksat-speedup")
@pytest.mark.parametrize("policy", POLICIES)
def test_3sat250_incremental_speedup_gate(benchmark, policy, bench_results):
    """ISSUE-3/ISSUE-5 acceptance: >= 5x flips/second on planted 3-SAT
    n=250 @ 4.2 for every registered flip policy.

    Asserted only under ``REPRO_ASSERT_SPEEDUP=1`` (timing gates are
    meaningless on noisy shared runners); the ratios are printed always
    and land in the CI benchmark artifact with the rest of the timings.
    """
    formula = _make_instance(250)
    budget, n_runs = 2_000, 3
    batch_flips, batch_fps = _flips_per_second(formula, "batch", budget, n_runs, policy)

    def incremental():
        return _flips_per_second(formula, "incremental", budget, n_runs, policy)

    incremental_flips, incremental_fps = benchmark.pedantic(
        incremental, rounds=1, iterations=1, warmup_rounds=0
    )
    assert incremental_flips == batch_flips
    ratio = incremental_fps / batch_fps
    bench_results.record(
        "walksat-speedup[3sat-250]",
        "incremental_vs_batch_speedup",
        ratio,
        policy=policy,
        n_variables=250,
        clause_ratio=RATIO,
        flips_per_second=incremental_fps,
    )
    print(
        f"\n3sat-250[{policy}] incremental-vs-batch: {ratio:.2f}x "
        f"({incremental_fps:,.0f} flips/s)"
    )
    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert ratio >= 5.0, (
            f"incremental clause state should be >= 5x the batch path on "
            f"planted 3-SAT n=250 @ {RATIO} under policy {policy!r}, got {ratio:.2f}x"
        )


@pytest.mark.benchmark(group="walksat-flips")
def test_scalar_flips_on_the_adaptive_process_formula(benchmark, request, bench_results):
    """Scalar flips/second on the perfbench ``adaptive-process`` formula.

    Uniform 3-SAT n=50 @ 4.2 (instance seed ``(20130813, 0x5AA)``), noise
    0.1, 20k-flip budget: the solver hot loop that workload spends almost
    all its time in.  Ungated: the number is recorded so the hot-loop layer
    has its own trajectory in the CI artifacts.
    """
    formula = random_ksat(
        50, clause_count_for_ratio(50, RATIO), 3, rng=np.random.default_rng((20130813, 0x5AA))
    )
    solver = WalkSAT(formula, WalkSATConfig(max_flips=20_000, noise=0.1))
    seeds = range(8)

    def scalar():
        start = time.perf_counter()
        flips = sum(solver.run(seed).iterations for seed in seeds)
        return flips, flips / (time.perf_counter() - start)

    flips, flips_per_second = benchmark.pedantic(scalar, rounds=1, iterations=1, warmup_rounds=0)
    bench_results.record(
        "walksat-flips[uniform-50@4.2-noise0.1]",
        "flips_per_second",
        flips_per_second,
        n_variables=50,
        clause_ratio=RATIO,
        noise=0.1,
        budget=20_000,
        n_runs=len(seeds),
        flips=flips,
    )
    print_once(
        request,
        f"walksat-flips[uniform-50@4.2-noise0.1]: {flips_per_second:,.0f} flips/s "
        f"({1e6 / flips_per_second:.1f} us/flip over {flips:,} flips)",
    )

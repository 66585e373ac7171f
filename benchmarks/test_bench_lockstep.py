"""Benches for the lockstep kernel: aggregate flips/second vs the scalar path.

Because the kernel is bit-identical per seed to the scalar incremental
solver (same flip sequences, pinned by ``tests/sat/test_vectorized.py``),
the wall-clock ratio of running the same seed block both ways IS the
aggregate flips/second ratio.  The PR-6 acceptance target is >= 3x
aggregate flips/second at K=64 walks on uniform 3-SAT with n=250 variables
at clause ratio 4.2, enforced on demand via ``REPRO_ASSERT_SPEEDUP=1``
(mirroring every other speedup gate here: hosted runners are too noisy to
gate unconditionally); the ratios and the K-sweep are printed always and
recorded to ``BENCH_results.json``.

Expected shape of the numbers: per step the kernel answers every active
walk's break-count/selection math in a handful of numpy calls whose cost
grows sublinearly in K, while the scalar loop pays full Python dispatch
per walk per flip — so throughput climbs steeply to K ~ 16 and keeps
creeping up until the (K, m) count matrix falls out of cache.  Measured
on a 2-vCPU container against a scalar path of ~52k-68k flips/s: ~0.2x
at K=1 — the batched math costs more than it saves with nothing to
amortise over — ~0.8-0.9x at K=16 and ~1.2-1.3x at K=64, so the >= 3x
gate fails there.
"""

import os
import time

import numpy as np
import pytest

from repro.sat import random_ksat
from repro.sat.vectorized import run_lockstep
from repro.solvers.walksat import WalkSAT, WalkSATConfig

from benchmarks.conftest import print_once

#: Clause-to-variable ratio (just under the 3-SAT phase transition).
RATIO = 4.2

#: The gate shape: K walks, n variables, per-walk flip budget.
GATE_WALKS = 64
GATE_VARIABLES = 250
BUDGET = 2_000


def _make_instance(n_variables: int):
    n_clauses = int(round(RATIO * n_variables))
    return random_ksat(
        n_variables, n_clauses, k=3, rng=np.random.default_rng(n_variables)
    )


def _scalar_flips_per_second(formula, seeds):
    solver = WalkSAT(formula, WalkSATConfig(max_flips=BUDGET, evaluation="incremental"))
    start = time.perf_counter()
    total_flips = sum(solver.run(int(seed)).iterations for seed in seeds)
    elapsed = time.perf_counter() - start
    return total_flips, total_flips / elapsed


def _lockstep_flips_per_second(formula, seeds):
    config = WalkSATConfig(max_flips=BUDGET, evaluation="incremental")
    start = time.perf_counter()
    results = run_lockstep(formula, config, list(seeds))
    elapsed = time.perf_counter() - start
    total_flips = sum(result.iterations for result in results)
    return total_flips, total_flips / elapsed


@pytest.mark.benchmark(group="lockstep-speedup")
def test_3sat250_lockstep_speedup_gate(benchmark, bench_results):
    """PR-6 acceptance: >= 3x aggregate flips/second at K=64 on uniform
    3-SAT n=250 @ 4.2 over the scalar incremental path.

    Asserted only under ``REPRO_ASSERT_SPEEDUP=1``; the ratio is printed
    and recorded always so PRs can track the trend.
    """
    formula = _make_instance(GATE_VARIABLES)
    seeds = list(range(GATE_WALKS))
    scalar_flips, scalar_fps = _scalar_flips_per_second(formula, seeds)

    def lockstep():
        return _lockstep_flips_per_second(formula, seeds)

    lockstep_flips, lockstep_fps = benchmark.pedantic(
        lockstep, rounds=1, iterations=1, warmup_rounds=0
    )
    # Bit-identical walks: same total flips on both paths.
    assert lockstep_flips == scalar_flips
    ratio = lockstep_fps / scalar_fps
    bench_results.record(
        "lockstep-speedup[3sat-250]",
        "lockstep_vs_scalar_speedup",
        ratio,
        n_walks=GATE_WALKS,
        n_variables=GATE_VARIABLES,
        clause_ratio=RATIO,
        budget=BUDGET,
        lockstep_flips_per_second=lockstep_fps,
        scalar_flips_per_second=scalar_fps,
    )
    print(
        f"\n3sat-250[K={GATE_WALKS}] lockstep-vs-scalar: {ratio:.2f}x "
        f"({lockstep_fps:,.0f} vs {scalar_fps:,.0f} flips/s)"
    )
    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert ratio >= 3.0, (
            f"lockstep kernel should be >= 3x the scalar incremental path at "
            f"K={GATE_WALKS} on uniform 3-SAT n={GATE_VARIABLES} @ {RATIO}, "
            f"got {ratio:.2f}x"
        )


@pytest.mark.benchmark(group="lockstep-sweep")
@pytest.mark.parametrize("n_walks", [1, 4, 16, 64])
def test_lockstep_width_sweep(benchmark, n_walks, request, bench_results):
    """Throughput as a function of the batch width K (same instance as the
    gate, seed blocks nested so wider runs strictly add walks)."""
    formula = _make_instance(GATE_VARIABLES)
    seeds = list(range(n_walks))

    def lockstep():
        return _lockstep_flips_per_second(formula, seeds)

    _flips, fps = benchmark.pedantic(lockstep, rounds=1, iterations=1, warmup_rounds=0)
    bench_results.record(
        f"lockstep-sweep[K={n_walks}]",
        "flips_per_second",
        fps,
        n_walks=n_walks,
        n_variables=GATE_VARIABLES,
        clause_ratio=RATIO,
        budget=BUDGET,
    )
    print_once(request, f"lockstep-sweep[K={n_walks}]: {fps:,.0f} flips/s")

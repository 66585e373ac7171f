"""Benches for the distributed backend: protocol overhead and worker scaling.

Two questions matter for the multi-host story:

1. **Overhead** — what does the coordinator/worker protocol cost per run on
   localhost, compared with handing the same batch to the serial backend?
   (The answer bounds the unit size below which distribution cannot pay.)
2. **Scaling** — does adding workers shrink wall clock?  On one machine the
   workers are processes, so this measures exactly what a multi-host fleet
   would see minus network latency.

Equivalence of the collected data is asserted unconditionally; the scaling
ratio is printed always and enforced (2 workers >= 1.4x over 1 worker on the
distribution-friendly workload) only under ``REPRO_ASSERT_SPEEDUP=1``,
because hosted runners are too noisy for a hard gate.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.csp.problems import CostasArrayProblem
from repro.engine.core import collect_batch
from repro.engine.distributed import DistributedBackend
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig

from benchmarks.conftest import print_once

N_RUNS = 48


def _solver() -> AdaptiveSearch:
    return AdaptiveSearch(CostasArrayProblem(8), AdaptiveSearchConfig(max_iterations=100_000))


def _spawn_workers(n: int, address: str) -> list:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--connect",
                address,
                "--connect-timeout",
                "60",
                "--poll-interval",
                "0.01",
            ],
            env=env,
        )
        for _ in range(n)
    ]


def _collect_distributed(n_workers: int, base_seed: int):
    backend = DistributedBackend(
        coordinator="127.0.0.1:0", unit_size=4, batch_timeout=300.0
    )
    address = backend.start()
    workers = _spawn_workers(n_workers, address)
    try:
        start = time.perf_counter()
        # Run the batch on the whole fleet: a worker still importing when a
        # fast batch ends would miss it and then retry its connection to the
        # closed coordinator for its full connect timeout.
        while len(backend._server._pipes) < n_workers:
            assert time.perf_counter() - start < 60.0, "workers did not connect"
            time.sleep(0.01)
        batch = collect_batch(_solver(), N_RUNS, base_seed=base_seed, backend=backend)
        elapsed = time.perf_counter() - start
    finally:
        backend.shutdown()
        for proc in workers:
            proc.wait(timeout=60)
    return batch, elapsed


@pytest.mark.benchmark(group="distributed-overhead")
def test_distributed_overhead_vs_serial(benchmark, request):
    """One worker on localhost: everything beyond serial time is protocol cost."""
    serial = collect_batch(_solver(), N_RUNS, base_seed=31, backend="serial")

    def collect():
        batch, _elapsed = _collect_distributed(1, base_seed=31)
        return batch

    batch = benchmark.pedantic(collect, rounds=1, iterations=1, warmup_rounds=0)
    np.testing.assert_array_equal(batch.iterations, serial.iterations)
    np.testing.assert_array_equal(batch.seeds, serial.seeds)
    print_once(
        request,
        f"distributed[1 worker]: {N_RUNS} runs of {_solver().describe()} "
        "(serial-equivalent data, socket transport)",
    )


@pytest.mark.benchmark(group="distributed-scaling")
def test_two_workers_scale_over_one(benchmark, bench_results):
    """Measure 2-worker vs 1-worker wall clock; enforce only on demand.

    Worker processes re-import numpy on startup, so on a small/busy machine
    the spawn cost can mask the scaling; ``REPRO_ASSERT_SPEEDUP=1`` enforces
    the >= 1.4x target on hosts where two real cores are available.
    """
    enforce = os.environ.get("REPRO_ASSERT_SPEEDUP") == "1"
    _, one_worker_seconds = _collect_distributed(1, base_seed=37)

    def collect_two():
        batch, _ = _collect_distributed(2, base_seed=37)
        return batch

    benchmark.pedantic(collect_two, rounds=1, iterations=1, warmup_rounds=0)
    two_worker_seconds = benchmark.stats.stats.mean
    ratio = one_worker_seconds / two_worker_seconds if two_worker_seconds > 0 else float("inf")
    bench_results.record(
        "distributed-scaling[2v1]",
        "wall_clock_speedup",
        ratio,
        n_runs=N_RUNS,
        unit_size=4,
        enforced=enforce,
    )
    print(f"\n2-worker vs 1-worker distributed speedup: {ratio:.2f}x")
    if enforce:
        assert ratio >= 1.4, (
            f"two workers should beat one by >= 1.4x on a multi-core host, got {ratio:.2f}x"
        )

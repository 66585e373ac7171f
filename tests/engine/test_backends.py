"""Backend equivalence and the race primitive (repro.engine).

The engine's hard invariant: a given base seed yields bit-identical
iteration counts on every backend at any worker count.  These tests pin it
on real solvers (N-Queens and Costas array, per the paper's benchmark
family) and on synthetic algorithms for the scheduling corner cases.
"""

import numpy as np
import pytest

from repro.csp.problems import CostasArrayProblem, NQueensProblem
from repro.engine.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_worker_count,
)
from repro.engine.core import collect_batch, resolve_backend, run_race
from repro.engine.seeding import spawn_seeds
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.base import LasVegasAlgorithm, RunResult


class SyntheticAlgorithm(LasVegasAlgorithm):
    name = "synthetic"

    def _run(self, rng: np.random.Generator) -> RunResult:
        iterations = int(rng.integers(1, 1000))
        return RunResult(solved=True, iterations=iterations, runtime_seconds=0.0)


def _problem(kind: str):
    if kind == "nqueens":
        return AdaptiveSearch(NQueensProblem(8), AdaptiveSearchConfig(max_iterations=50_000))
    return AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=50_000))


@pytest.fixture(scope="module")
def serial_reference():
    """Serial-backend batches for both problems (the ground truth)."""
    return {
        kind: collect_batch(_problem(kind), 12, base_seed=17, backend="serial")
        for kind in ("nqueens", "costas")
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kind", ["nqueens", "costas"])
    def test_identical_observations_across_backends(self, backend, kind, serial_reference):
        reference = serial_reference[kind]
        workers = None if backend == "serial" else 2
        batch = collect_batch(_problem(kind), 12, base_seed=17, backend=backend, workers=workers)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.solved, reference.solved)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)
        assert batch.label == reference.label

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_worker_count_does_not_change_results(self, workers):
        reference = collect_batch(SyntheticAlgorithm(), 40, base_seed=3)
        batch = collect_batch(
            SyntheticAlgorithm(), 40, base_seed=3, backend="thread", workers=workers
        )
        np.testing.assert_array_equal(batch.iterations, reference.iterations)


class TestCollectBatch:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            collect_batch(SyntheticAlgorithm(), 0)

    def test_progress_events_cover_every_run(self):
        events = []
        collect_batch(SyntheticAlgorithm(), 15, base_seed=1, progress=events.append)
        assert len(events) == 15
        assert [e.completed for e in events] == list(range(1, 16))
        assert sorted(e.index for e in events) == list(range(15))
        assert all(e.total == 15 for e in events)
        assert events[-1].fraction == 1.0
        assert all(e.elapsed_seconds >= 0.0 for e in events)

    def test_progress_events_on_threaded_backend(self):
        events = []
        collect_batch(
            SyntheticAlgorithm(), 15, base_seed=1,
            backend="thread", workers=3, progress=events.append,
        )
        assert sorted(e.index for e in events) == list(range(15))

    def test_custom_label(self):
        batch = collect_batch(SyntheticAlgorithm(), 5, label="my-batch")
        assert batch.label == "my-batch"


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_named_backends(self):
        assert isinstance(resolve_backend("thread", 2), ThreadBackend)
        assert isinstance(resolve_backend("process", 2), ProcessBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend(workers=3)
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError):
            resolve_backend(backend, workers=2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_serial_rejects_extra_workers(self):
        with pytest.raises(ValueError):
            resolve_backend("serial", workers=4)

    def test_default_worker_count(self):
        assert default_worker_count(None) >= 1
        assert default_worker_count(3) == 3
        with pytest.raises(ValueError):
            default_worker_count(0)


class TestRunRace:
    def test_first_solved_walk_wins_serially(self):
        outcome = run_race(SyntheticAlgorithm(), 8, base_seed=5)
        assert outcome.solved
        assert outcome.winner_index == 0  # synthetic always solves
        assert outcome.n_completed == 1  # remaining walks were cancelled
        # Walk i runs on the i-th child of the batch seed tree.
        assert outcome.winner_result.iterations == (
            SyntheticAlgorithm().run(spawn_seeds(5, 8)[0]).iterations
        )

    def test_unsolved_tie_break_lowest_index(self):
        class NeverSolves(LasVegasAlgorithm):
            name = "never-solves"

            def _run(self, rng: np.random.Generator) -> RunResult:
                return RunResult(solved=False, iterations=50, runtime_seconds=0.0)

        outcome = run_race(NeverSolves(), 5, base_seed=0)
        assert not outcome.solved
        assert outcome.winner_index == 0
        assert outcome.n_completed == 5  # nothing solved, so all walks ran

    def test_unsolved_winner_has_fewest_iterations(self):
        class BudgetByIndex(LasVegasAlgorithm):
            """Deterministically unsolved, with distinct per-seed budgets."""

            name = "budget-by-index"

            def _run(self, rng: np.random.Generator) -> RunResult:
                return RunResult(
                    solved=False,
                    iterations=int(rng.integers(10, 10_000)),
                    runtime_seconds=0.0,
                )

        serial = run_race(BudgetByIndex(), 6, base_seed=11)
        threaded = run_race(BudgetByIndex(), 6, base_seed=11, backend="thread", workers=3)
        assert serial.winner_index == threaded.winner_index
        assert serial.winner_result.iterations == threaded.winner_result.iterations

    def test_thread_race_returns_before_slow_walks_finish(self):
        """Regression: a solved walk must decide the race immediately; the
        thread backend may not block until in-flight losers drain."""
        import threading
        import time as _time

        class FirstFastRestSlow(LasVegasAlgorithm):
            name = "first-fast-rest-slow"

            def __init__(self):
                self._lock = threading.Lock()
                self._calls = 0

            def _run(self, rng: np.random.Generator) -> RunResult:
                with self._lock:
                    first = self._calls == 0
                    self._calls += 1
                if not first:
                    _time.sleep(2.0)
                return RunResult(solved=True, iterations=1, runtime_seconds=0.0)

        outcome = run_race(FirstFastRestSlow(), 4, base_seed=0, backend="thread", workers=4)
        assert outcome.solved
        assert outcome.wall_clock_seconds < 1.0  # did not wait for the sleepers

    def test_race_on_real_solver_process_backend(self):
        solver = AdaptiveSearch(CostasArrayProblem(6), AdaptiveSearchConfig(max_iterations=50_000))
        outcome = run_race(solver, 2, base_seed=0, backend="process", workers=2)
        assert outcome.solved
        assert solver.problem.is_solution(outcome.winner_result.solution)
        assert outcome.wall_clock_seconds > 0.0

    def test_rejects_zero_walks(self):
        with pytest.raises(ValueError):
            run_race(SyntheticAlgorithm(), 0)

    def test_winner_runtime_within_race_wall_clock(self):
        outcome = run_race(SyntheticAlgorithm(), 4, base_seed=2)
        assert 0.0 <= outcome.winner_result.runtime_seconds <= outcome.wall_clock_seconds

"""The lockstep backend: SIMD batching behind the engine's backend seam.

The backend inherits the engine's hard invariant from the kernel's
bit-identity contract (``tests/sat/test_vectorized.py``); here we pin the
*wiring*: collect_batch/run_race observations equal to serial at every
width, block chunking, the serial fallback for non-lockstep algorithms and
payloads, and the resolve_backend/CLI validation surface.
"""

import numpy as np
import pytest

from repro.csp.problems import NQueensProblem
from repro.engine import LockstepBackend, collect_batch, resolve_backend, run_race
from repro.engine.lockstep import supports_lockstep
from repro.engine.tasks import execute_run
from repro.sat import random_planted_ksat
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.walksat import WalkSAT, WalkSATConfig


def _sat_solver(policy: str = "walksat", restart_after: int | None = None) -> WalkSAT:
    formula, _ = random_planted_ksat(30, 126, rng=np.random.default_rng(11))
    config = WalkSATConfig(max_flips=500, policy=policy, restart_after=restart_after)
    return WalkSAT(formula, config)


def _assert_batches_equal(batch, reference) -> None:
    np.testing.assert_array_equal(batch.iterations, reference.iterations)
    np.testing.assert_array_equal(batch.solved, reference.solved)
    np.testing.assert_array_equal(batch.seeds, reference.seeds)
    assert batch.label == reference.label


class TestLockstepCollectBatch:
    @pytest.mark.parametrize("width", [None, 1, 7, 64])
    def test_identical_observations_to_serial(self, width):
        solver = _sat_solver()
        reference = collect_batch(solver, 20, base_seed=17, backend="serial")
        backend = "lockstep" if width is None else LockstepBackend(width=width)
        batch = collect_batch(solver, 20, base_seed=17, backend=backend)
        _assert_batches_equal(batch, reference)

    def test_identical_with_restarts(self):
        solver = _sat_solver(restart_after=40)
        reference = collect_batch(solver, 15, base_seed=5, backend="serial")
        batch = collect_batch(solver, 15, base_seed=5, backend="lockstep")
        _assert_batches_equal(batch, reference)

    def test_scalar_fallback_for_unvectorised_policy(self):
        solver = _sat_solver(policy="novelty+")
        assert not supports_lockstep(solver)
        reference = collect_batch(solver, 10, base_seed=3, backend="serial")
        batch = collect_batch(solver, 10, base_seed=3, backend="lockstep")
        _assert_batches_equal(batch, reference)

    def test_scalar_fallback_for_non_sat_algorithms(self):
        solver = AdaptiveSearch(NQueensProblem(8), AdaptiveSearchConfig(max_iterations=50_000))
        assert not supports_lockstep(solver)
        reference = collect_batch(solver, 8, base_seed=2, backend="serial")
        batch = collect_batch(solver, 8, base_seed=2, backend="lockstep")
        _assert_batches_equal(batch, reference)


class TestLockstepRace:
    def test_same_winner_as_serial(self):
        solver = _sat_solver()
        reference = run_race(solver, 9, base_seed=23, backend="serial")
        outcome = run_race(solver, 9, base_seed=23, backend="lockstep")
        assert outcome.winner_index == reference.winner_index
        assert outcome.winner_result.iterations == reference.winner_result.iterations
        assert outcome.solved == reference.solved

    def test_narrow_width_race_matches_too(self):
        solver = _sat_solver()
        reference = run_race(solver, 9, base_seed=23, backend="serial")
        outcome = run_race(solver, 9, base_seed=23, backend=LockstepBackend(width=2))
        assert outcome.winner_index == reference.winner_index


class TestBackendSurface:
    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_backend("lockstep"), LockstepBackend)
        backend = LockstepBackend(width=4)
        assert resolve_backend(backend) is backend

    def test_rejects_workers(self):
        with pytest.raises(ValueError, match="lockstep backend runs in-process"):
            resolve_backend("lockstep", workers=2)

    def test_rejects_invalid_width(self):
        with pytest.raises(ValueError, match="width must be >= 1"):
            LockstepBackend(width=0)

    def test_describe_names_the_width(self):
        assert LockstepBackend().describe() == "lockstep[width=auto]"
        assert LockstepBackend(width=16).describe() == "lockstep[width=16]"

    def test_arbitrary_payloads_run_serially(self):
        backend = LockstepBackend()
        results = list(backend.imap_unordered(lambda x: x * 2, [1, 2, 3]))
        assert results == [2, 4, 6]

    def test_supports_lockstep_probe(self):
        assert supports_lockstep(_sat_solver())
        assert supports_lockstep(_sat_solver(policy="adaptive"))
        assert not supports_lockstep(object())

    def test_chunked_blocks_cover_every_task(self):
        # Width 3 over 10 runs: 4 kernel calls, indices must all arrive.
        solver = _sat_solver()
        from repro.engine.seeding import spawn_seeds
        from repro.engine.tasks import RunTask

        seeds = spawn_seeds(0, 10)
        payloads = [RunTask(solver, index, seed) for index, seed in enumerate(seeds)]
        backend = LockstepBackend(width=3)
        results = dict(backend.imap_unordered(execute_run, payloads))
        assert sorted(results) == list(range(10))
        for index, seed in enumerate(seeds):
            assert results[index].seed == int(seed)

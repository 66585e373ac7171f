"""On-disk observation cache (repro.engine.cache)."""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.report import CampaignReport
from repro.csp.problems import CostasArrayProblem
from repro.engine.cache import ObservationCache, algorithm_fingerprint
from repro.engine.core import collect_batch
from repro.recipes.schema import bundled_recipe_names, load_bundled_recipe
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.base import LasVegasAlgorithm, RunResult


class CountingAlgorithm(LasVegasAlgorithm):
    """Synthetic algorithm that counts how many runs were executed."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def _run(self, rng: np.random.Generator) -> RunResult:
        self.calls += 1
        return RunResult(solved=True, iterations=int(rng.integers(1, 100)), runtime_seconds=0.0)


class TestAlgorithmFingerprint:
    def test_same_construction_same_fingerprint(self):
        a = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=100))
        b = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=100))
        assert algorithm_fingerprint(a) == algorithm_fingerprint(b)

    def test_config_change_changes_fingerprint(self):
        a = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=100))
        b = AdaptiveSearch(CostasArrayProblem(7), AdaptiveSearchConfig(max_iterations=200))
        assert algorithm_fingerprint(a) != algorithm_fingerprint(b)

    def test_problem_change_changes_fingerprint(self):
        a = AdaptiveSearch(CostasArrayProblem(7))
        b = AdaptiveSearch(CostasArrayProblem(8))
        assert algorithm_fingerprint(a) != algorithm_fingerprint(b)

    def test_same_shape_different_content_distinct(self):
        """Regression: two CNF formulas with identical (n_vars, n_clauses)
        but different clauses must not collide on one fingerprint."""
        from repro.sat.cnf import CNFFormula
        from repro.solvers.walksat import WalkSAT

        f1 = CNFFormula(3, [(1, 2), (-1, 3)])
        f2 = CNFFormula(3, [(-2, 3), (1, -3)])
        assert algorithm_fingerprint(WalkSAT(f1)) != algorithm_fingerprint(WalkSAT(f2))
        # ... while identical content still collides (cache hits work).
        f1_again = CNFFormula(3, [(1, 2), (-1, 3)])
        assert algorithm_fingerprint(WalkSAT(f1)) == algorithm_fingerprint(WalkSAT(f1_again))


class TestObservationCache:
    def test_round_trip(self, tmp_path):
        cache = ObservationCache(tmp_path)
        batch = collect_batch(CountingAlgorithm(), 10, base_seed=1, cache=cache)
        # Probe with a pristine object, as a later process would.
        loaded = cache.read_batch(cache.path_for(CountingAlgorithm(), 10, 1, label=batch.label))
        assert loaded is not None
        np.testing.assert_array_equal(loaded.iterations, batch.iterations)
        np.testing.assert_array_equal(loaded.seeds, batch.seeds)

    def test_repeat_campaign_is_free(self, tmp_path):
        """A fresh process (fresh algorithm object) must hit the disk cache.

        The cache key is taken *before* any run executes, so the stored key
        matches what a pristine object in a later process will probe with —
        even for algorithms whose attributes mutate while running.
        """
        first = CountingAlgorithm()
        batch = collect_batch(first, 10, base_seed=1, cache=tmp_path)
        assert first.calls == 10
        fresh = CountingAlgorithm()  # simulates a new CLI invocation
        again = collect_batch(fresh, 10, base_seed=1, cache=tmp_path)
        assert fresh.calls == 0  # served from disk, nothing re-ran
        np.testing.assert_array_equal(again.iterations, batch.iterations)
        assert len(list(tmp_path.glob("observations-*.json"))) == 1

    def test_key_sensitive_to_seed_and_count(self, tmp_path):
        algo = CountingAlgorithm()
        cache = ObservationCache(tmp_path)
        keys = {
            cache.key(algo, 10, 1),
            cache.key(algo, 10, 2),
            cache.key(algo, 20, 1),
            cache.key(algo, 10, 1, label="other"),
        }
        assert len(keys) == 4
        assert cache.key(algo, 10, 1) == cache.key(algo, 10, 1)

    def test_miss_returns_none(self, tmp_path):
        cache = ObservationCache(tmp_path)
        assert cache.read_batch(cache.path_for(CountingAlgorithm(), 5, 0)) is None

    def test_different_seed_triggers_fresh_campaign(self, tmp_path):
        algo = CountingAlgorithm()
        collect_batch(algo, 5, base_seed=1, cache=tmp_path)
        collect_batch(algo, 5, base_seed=2, cache=tmp_path)
        assert algo.calls == 10
        assert len(list(tmp_path.glob("observations-*.json"))) == 2

    def test_directory_created_on_demand(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        ObservationCache(target)
        assert target.is_dir()

    def test_cache_hit_emits_completion_event(self, tmp_path):
        """A warm-cache return still tells a progress display it finished."""
        collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path)
        events = []
        collect_batch(
            CountingAlgorithm(), 5, base_seed=1, cache=tmp_path, progress=events.append
        )
        assert len(events) == 1
        assert events[0].completed == events[0].total == 5
        assert events[0].fraction == 1.0

    def test_batch_at_start_is_the_tail_of_a_longer_batch(self, tmp_path):
        whole = collect_batch(CountingAlgorithm(), 9, base_seed=5)
        tail = collect_batch(CountingAlgorithm(), 4, base_seed=5, start=5, cache=tmp_path)
        np.testing.assert_array_equal(tail.seeds, whole.seeds[5:])
        np.testing.assert_array_equal(tail.iterations, whole.iterations[5:])
        np.testing.assert_array_equal(tail.solved, whole.solved[5:])
        # ... and it is cached under its own key, apart from a batch of 4 at start 0.
        head = collect_batch(CountingAlgorithm(), 4, base_seed=5, cache=tmp_path)
        np.testing.assert_array_equal(head.seeds, whole.seeds[:4])
        assert len(list(tmp_path.glob("observations-*.json"))) == 2

    def test_start_zero_keeps_the_existing_file_name(self, tmp_path):
        cache = ObservationCache(tmp_path)
        algo = CountingAlgorithm()
        ingredients = f"{algorithm_fingerprint(algo)}|lbl|n_runs=10|base_seed=1"
        digest = hashlib.sha256(ingredients.encode()).hexdigest()[:24]
        expected = tmp_path / f"observations-{digest}.json"
        assert cache.path_for(algo, 10, 1, label="lbl", start=0) == expected
        assert cache.path_for(algo, 10, 1, label="lbl") == expected
        assert cache.path_for(algo, 10, 1, label="lbl", start=3) != expected

    def test_negative_start_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="start"):
            collect_batch(CountingAlgorithm(), 5, base_seed=1, start=-1, cache=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_cache_hit_at_start_counts_along_the_stream(self, tmp_path):
        collect_batch(CountingAlgorithm(), 5, base_seed=1, start=7, cache=tmp_path)
        events = []
        fresh = CountingAlgorithm()
        collect_batch(fresh, 5, base_seed=1, start=7, cache=tmp_path, progress=events.append)
        assert fresh.calls == 0
        assert len(events) == 1
        assert events[0].index == 11
        assert events[0].completed == events[0].total == 12

    def test_invalid_backend_rejected_even_on_warm_cache(self, tmp_path):
        """Backend validation must not depend on cache warmth."""
        collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path)
        with pytest.raises(ValueError, match="unknown backend"):
            collect_batch(CountingAlgorithm(), 5, base_seed=1, cache=tmp_path, backend="gpu")

    def test_cross_backend_cache_hit(self, tmp_path):
        """A batch collected serially satisfies a process-backend request."""
        solver = AdaptiveSearch(CostasArrayProblem(6), AdaptiveSearchConfig(max_iterations=50_000))
        first = collect_batch(solver, 6, base_seed=4, cache=tmp_path, backend="serial")
        second = collect_batch(solver, 6, base_seed=4, cache=tmp_path, backend="process", workers=2)
        np.testing.assert_array_equal(first.iterations, second.iterations)
        assert len(list(tmp_path.glob("observations-*.json"))) == 1

    @pytest.mark.parametrize("writer", ["observations", "campaign-report", "campaign-recipe"])
    def test_interrupted_write_leaves_no_torn_file(self, tmp_path, monkeypatch, writer):
        """A write that dies halfway must not poison the key for later campaigns,
        nor leave a torn report or recipe that ``--replay`` would reject."""
        if writer == "observations":
            cache = ObservationCache(tmp_path)
            batch = collect_batch(CountingAlgorithm(), 10, base_seed=1)
            path = cache.path_for(CountingAlgorithm(), 10, 1, label=batch.label)
            save = functools.partial(cache.write_batch, batch, path)
        elif writer == "campaign-report":
            report = CampaignReport(controller="off", controller_params={}, stages=(), decisions=())
            path = tmp_path / "report.json"
            save = functools.partial(report.save, path)
        else:
            path = tmp_path / "recipe.json"
            save = functools.partial(load_bundled_recipe(bundled_recipe_names()[0]).save, path)

        def write_half_then_fail(target, data, *args, **kwargs):
            with open(target, "wb" if isinstance(data, bytes) else "w") as stream:
                stream.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save()
        monkeypatch.undo()
        assert not path.exists()
        if writer == "observations":
            assert cache.read_batch(path) is None
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind either

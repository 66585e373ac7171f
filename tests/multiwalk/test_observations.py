"""RuntimeObservations container."""

import os

import numpy as np
import pytest

from repro.multiwalk.observations import RuntimeObservations, atomic_write_bytes
from repro.solvers.base import RunResult


def make_batch(label="test", n=5):
    results = [
        RunResult(solved=i % 4 != 3, iterations=10 * (i + 1), runtime_seconds=0.1 * (i + 1), seed=i)
        for i in range(n)
    ]
    return RuntimeObservations.from_results(label, results)


class TestConstruction:
    def test_from_results(self):
        batch = make_batch(n=5)
        assert batch.n_runs == 5
        assert batch.n_solved == 4
        assert batch.success_rate() == pytest.approx(0.8)
        np.testing.assert_array_equal(batch.seeds, [0, 1, 2, 3, 4])

    def test_from_values_iterations(self):
        batch = RuntimeObservations.from_values("x", [3.0, 5.0])
        np.testing.assert_array_equal(batch.values("iterations"), [3.0, 5.0])
        assert batch.success_rate() == 1.0

    def test_from_values_time_measure(self):
        batch = RuntimeObservations.from_values("x", [0.3, 0.5], measure="time")
        np.testing.assert_array_equal(batch.values("time"), [0.3, 0.5])

    def test_from_values_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            RuntimeObservations.from_values("x", [1.0], measure="flops")

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            RuntimeObservations.from_results("x", [])
        with pytest.raises(ValueError):
            RuntimeObservations(
                label="x",
                iterations=np.array([1.0]),
                runtimes=np.array([1.0, 2.0]),
                solved=np.array([True]),
                seeds=np.array([0]),
            )

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            RuntimeObservations.from_values("x", [-1.0, 2.0])


class TestValues:
    def test_solved_only_filtering(self):
        batch = make_batch(n=8)
        solved_values = batch.values("iterations")
        all_values = batch.values("iterations", solved_only=False)
        assert solved_values.size == batch.n_solved
        assert all_values.size == batch.n_runs

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            make_batch().values("flops")

    def test_no_solved_runs_raises(self):
        batch = RuntimeObservations(
            label="x",
            iterations=np.array([5.0]),
            runtimes=np.array([0.1]),
            solved=np.array([False]),
            seeds=np.array([0]),
        )
        with pytest.raises(ValueError):
            batch.values("iterations")

    def test_iteration_and_len_protocols(self):
        batch = make_batch(n=3)
        assert len(batch) == 3
        rows = list(batch)
        assert rows[0][0] == 10.0


class TestCombination:
    def test_extend(self):
        merged = make_batch(n=3).extend(make_batch(n=2))
        assert merged.n_runs == 5

    def test_extend_rejects_different_labels(self):
        with pytest.raises(ValueError):
            make_batch(label="a").extend(make_batch(label="b"))

    def test_subset(self):
        batch = make_batch(n=6)
        subset = batch.subset([0, 2, 4])
        assert subset.n_runs == 3
        np.testing.assert_array_equal(subset.iterations, [10.0, 30.0, 50.0])


class TestPersistence:
    def test_dict_round_trip(self):
        batch = make_batch()
        rebuilt = RuntimeObservations.from_dict(batch.to_dict())
        np.testing.assert_array_equal(rebuilt.iterations, batch.iterations)
        np.testing.assert_array_equal(rebuilt.solved, batch.solved)
        assert rebuilt.label == batch.label

    def test_file_round_trip(self, tmp_path):
        batch = make_batch()
        path = tmp_path / "batch.json"
        batch.save(path)
        rebuilt = RuntimeObservations.load(path)
        np.testing.assert_array_equal(rebuilt.runtimes, batch.runtimes)
        np.testing.assert_array_equal(rebuilt.seeds, batch.seeds)


class TestAtomicWriteBytes:
    def test_writes_exact_bytes_over_an_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new \x00 bytes\n")
        assert path.read_bytes() == b"new \x00 bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_bytes(path, b"new")
        monkeypatch.undo()
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_temporary_is_a_unique_sibling(self, tmp_path, monkeypatch):
        """The rename stays within one directory (one filesystem), and two
        writers of one path never share a temporary name."""
        sources = []
        real_replace = os.replace

        def recording_replace(src, dst):
            sources.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        path = tmp_path / "out.json"
        atomic_write_bytes(path, b"a")
        atomic_write_bytes(path, b"b")
        assert [src.parent for src in sources] == [tmp_path, tmp_path]
        assert sources[0] != sources[1]
        assert path.read_bytes() == b"b"

"""Tables 1–5 experiment functions."""


from repro.experiments.config import BENCHMARK_KEYS
from repro.experiments.tables import (
    table1_sequential_times,
    table2_sequential_iterations,
    table3_time_speedups,
    table4_iteration_speedups,
    table5_prediction_comparison,
)


class TestTables1And2:
    def test_table1_rows_and_format(self, tiny_config, tiny_observations):
        table = table1_sequential_times(tiny_config, tiny_observations)
        rows = table.rows()
        assert len(rows) == 3
        for row in rows:
            label, minimum, mean, median, maximum = row
            assert minimum <= median <= maximum
            assert minimum <= mean <= maximum
        text = table.format()
        assert "Table 1" in text
        assert tiny_observations["MS"].label in text

    def test_table2_iteration_summary(self, tiny_config, tiny_observations):
        table = table2_sequential_iterations(tiny_config, tiny_observations)
        for key in BENCHMARK_KEYS:
            summary = table.summaries[key]
            assert summary.n_runs == tiny_observations[key].values("iterations").size
            assert summary.maximum >= summary.minimum
        assert "iterations" in table.format().lower()

    def test_las_vegas_dispersion_visible(self, tiny_config, tiny_observations):
        """Iteration counts spread over a wide interval (Section 5.4)."""
        table = table2_sequential_iterations(tiny_config, tiny_observations)
        assert any(table.summaries[k].dispersion() > 3.0 for k in BENCHMARK_KEYS)


class TestTables3And4:
    def test_table4_speedups_increase_with_cores(self, tiny_config, tiny_observations):
        table = table4_iteration_speedups(tiny_config, tiny_observations)
        for key in BENCHMARK_KEYS:
            speedups = [table.speedup(key, c) for c in tiny_config.cores]
            assert speedups[0] >= 1.0 - 1e-9
            assert speedups[-1] >= speedups[0]
        assert "Table 4" in table.format()

    def test_table3_uses_time_measure(self, tiny_config, tiny_observations):
        table = table3_time_speedups(tiny_config, tiny_observations)
        assert table.measure == "time"
        assert "time" in table.format().lower()
        for key in BENCHMARK_KEYS:
            assert table.speedup(key, tiny_config.cores[-1]) > 0.0

    def test_tables_3_and_4_are_comparable(self, tiny_config, tiny_observations):
        """The paper notes no significant difference between time and iteration speed-ups."""
        t3 = table3_time_speedups(tiny_config, tiny_observations)
        t4 = table4_iteration_speedups(tiny_config, tiny_observations)
        k = tiny_config.cores[-1]
        for key in BENCHMARK_KEYS:
            assert t3.speedup(key, k) > 1.0
            assert t4.speedup(key, k) > 1.0


class TestTable5:
    def test_prediction_tracks_measurement(self, tiny_config, tiny_observations):
        table = table5_prediction_comparison(tiny_config, tiny_observations)
        assert set(table.predictions) == set(BENCHMARK_KEYS)
        # Shape check (the paper's headline): predictions are within a factor
        # of ~2 of the simulated measurement for every benchmark/core count.
        for key in BENCHMARK_KEYS:
            for cores in tiny_config.cores:
                measured = table.experimental[key].speedup(cores)
                predicted = table.predictions[key].speedup(cores)
                assert predicted > 0.0
                assert 0.3 < predicted / measured < 3.5, (key, cores, measured, predicted)

    def test_cores_are_the_config_cores(self, tiny_config, tiny_observations):
        # Measurements and predictions share config.cores, so every row
        # cell has a measured counterpart (rows() would KeyError otherwise).
        table = table5_prediction_comparison(tiny_config, tiny_observations)
        assert table.cores == tuple(tiny_config.cores)
        for key in BENCHMARK_KEYS:
            assert [table.experimental[key].speedup(c) for c in table.cores]
        assert len(table.rows()[0]) == 2 + len(tiny_config.cores)

    def test_paper_families_are_used(self, tiny_config, tiny_observations):
        table = table5_prediction_comparison(tiny_config, tiny_observations)
        assert table.predictions["MS"].family == "shifted_lognormal"
        assert table.predictions["AI"].family == "shifted_exponential"
        assert table.predictions["Costas"].family == "shifted_exponential"

    def test_relative_error_helpers(self, tiny_config, tiny_observations):
        table = table5_prediction_comparison(tiny_config, tiny_observations)
        for key in BENCHMARK_KEYS:
            assert table.max_relative_error(key) >= 0.0
            assert table.relative_error(key, tiny_config.cores[0]) >= 0.0

    def test_format_contains_both_series(self, tiny_config, tiny_observations):
        text = table5_prediction_comparison(tiny_config, tiny_observations).format()
        assert "experimental" in text
        assert "predicted" in text
        assert "Table 5" in text

    def test_rows_alternate_experimental_and_predicted(self, tiny_config, tiny_observations):
        rows = table5_prediction_comparison(tiny_config, tiny_observations).rows()
        assert len(rows) == 6
        assert rows[0][1] == "experimental"
        assert rows[1][1] == "predicted"

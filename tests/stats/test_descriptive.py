"""Descriptive summaries (Tables 1–2 material)."""

import math

import numpy as np
import pytest

from repro.stats.descriptive import RuntimeSummary, summarize


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([4.0, 1.0, 3.0, 2.0])
        assert summary.n_runs == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_as_row_order_matches_paper_columns(self):
        summary = summarize([10.0, 20.0, 30.0])
        assert summary.as_row() == (10.0, 20.0, 20.0, 30.0)

    def test_single_observation(self):
        summary = summarize([7.0])
        assert summary.std == 0.0
        assert summary.as_row() == (7.0, 7.0, 7.0, 7.0)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0, math.inf])

    def test_format_row_contains_label_and_values(self):
        text = summarize([1.0, 2.0]).format_row("AI 700")
        assert "AI 700" in text
        assert "2.0" in text


class TestDispersion:
    def test_ratio(self):
        assert summarize([2.0, 10.0, 20.0]).dispersion() == pytest.approx(10.0)

    def test_infinite_when_minimum_zero(self):
        assert math.isinf(summarize([0.0, 5.0]).dispersion())

    def test_paper_observation_large_dispersion(self, rng):
        """Las Vegas runtimes span orders of magnitude (Section 5.4)."""
        data = rng.exponential(1000.0, size=600) + 1.0
        assert summarize(data).dispersion() > 100.0

    def test_summary_dispersion_consistency(self):
        summary = summarize([5.0, 50.0])
        assert summary.dispersion() == pytest.approx(10.0)
        assert isinstance(summary, RuntimeSummary)

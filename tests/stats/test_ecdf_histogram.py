"""Histogram overlays."""

import numpy as np
import pytest

from repro.core.distributions import ShiftedExponential
from repro.stats.histogram import density_histogram, histogram_with_fit


class TestHistograms:
    def test_density_histogram_integrates_to_one(self, rng):
        data = rng.lognormal(3.0, 1.0, 400)
        overlay = density_histogram(data)
        assert overlay.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert overlay.fitted is None
        assert overlay.bin_centers.size == overlay.densities.size

    def test_explicit_bin_count(self, rng):
        data = rng.uniform(0, 1, 100)
        overlay = density_histogram(data, bins=10)
        assert overlay.densities.size == 10

    def test_rejects_empty_or_bad_bins(self):
        with pytest.raises(ValueError):
            density_histogram([])
        with pytest.raises(ValueError):
            density_histogram([1.0, 2.0], bins=0)

    def test_histogram_with_fit_matches_density(self, rng):
        """Figure 8-style overlay: fitted curve tracks the histogram."""
        dist = ShiftedExponential(x0=100.0, lam=1e-2)
        data = dist.sample(rng, 2000)
        overlay = histogram_with_fit(data, dist, bins=30)
        assert overlay.fitted is not None
        # Average absolute deviation between histogram and fitted density is
        # small relative to the peak density.
        deviation = np.mean(np.abs(overlay.densities - overlay.fitted))
        assert deviation < 0.25 * overlay.densities.max()

    def test_ascii_rendering_mentions_bars(self, rng):
        data = rng.exponential(5.0, 200)
        overlay = histogram_with_fit(data, ShiftedExponential(x0=0.0, lam=0.2))
        art = overlay.to_ascii()
        assert "#" in art
        assert "|" in art

    def test_degenerate_data_single_value(self):
        overlay = density_histogram([5.0, 5.0, 5.0])
        assert overlay.total_mass() == pytest.approx(1.0, abs=1e-9)

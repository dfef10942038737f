"""Tests for the discrete-optimization cut finder."""

import numpy as np
import pytest

from repro.core.partitioning import CutDiagnostics, find_cuts
from repro.errors import ValidationError


def bimodal_counts(n_bins=64, gap_center=32, spread=4, mass=1000, rng=None):
    """Two clean modes separated at gap_center."""
    rng = rng or np.random.default_rng(0)
    left = rng.normal(gap_center - 16, spread, mass).astype(int)
    right = rng.normal(gap_center + 16, spread, mass).astype(int)
    counts = np.bincount(
        np.clip(np.concatenate([left, right]), 0, n_bins - 1), minlength=n_bins
    )
    return counts.astype(float)


class TestFindCuts:
    def test_bimodal_single_cut_near_gap(self):
        counts = bimodal_counts()
        cuts = find_cuts(counts, n_points=2000)
        assert cuts.size == 1
        assert abs(int(cuts[0]) - 32) <= 6

    def test_unimodal_no_cut(self, rng):
        counts = np.bincount(
            np.clip(rng.normal(32, 5, 2000).astype(int), 0, 63), minlength=64
        ).astype(float)
        cuts = find_cuts(counts, n_points=2000)
        assert cuts.size == 0

    def test_uniform_no_cut(self):
        counts = np.full(64, 50.0)
        cuts = find_cuts(counts, n_points=3200)
        assert cuts.size == 0

    def test_empty_histogram_no_cut(self):
        assert find_cuts(np.zeros(32), n_points=1).size == 0

    def test_three_modes_two_cuts(self, rng):
        parts = [rng.normal(c, 3, 800) for c in (16, 48, 80)]
        counts = np.bincount(
            np.clip(np.concatenate(parts).astype(int), 0, 95), minlength=96
        ).astype(float)
        cuts = find_cuts(counts, n_points=2400)
        assert cuts.size == 2

    def test_disjoint_support_always_cut(self):
        counts = np.zeros(64)
        counts[4:10] = 100.0
        counts[50:56] = 100.0
        cuts = find_cuts(counts, n_points=1200)
        assert cuts.size >= 1
        assert np.any((cuts > 9) & (cuts < 50))

    def test_prominence_filters_shallow_valley(self, rng):
        """A barely-dented unimodal histogram must not be cut at high
        min_prominence."""
        base = np.bincount(
            np.clip(rng.normal(32, 8, 5000).astype(int), 0, 63), minlength=64
        ).astype(float)
        base[32] *= 0.93  # a 7% dent
        strict = find_cuts(base, n_points=5000, min_prominence=0.5)
        assert strict.size == 0

    def test_lower_prominence_more_cuts(self, rng):
        counts = bimodal_counts(rng=rng) + bimodal_counts(
            gap_center=32, spread=8, rng=rng
        )
        loose = find_cuts(counts, n_points=4000, min_prominence=0.01)
        strict = find_cuts(counts, n_points=4000, min_prominence=0.9)
        assert loose.size >= strict.size

    def test_cuts_strictly_increasing_and_in_range(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            counts = np.abs(r.normal(0, 50, 64)) + r.integers(0, 100, 64)
            cuts = find_cuts(counts, n_points=int(counts.sum()))
            if cuts.size:
                assert np.all(np.diff(cuts) > 0)
                assert cuts.min() >= 0
                assert cuts.max() < 63

    def test_diagnostics_returned(self):
        counts = bimodal_counts()
        cuts, diag = find_cuts(counts, n_points=2000, return_diagnostics=True)
        assert isinstance(diag, CutDiagnostics)
        assert diag.smoothed.shape == counts.shape
        assert diag.slopes.shape == counts.shape

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            find_cuts(np.array([]), n_points=1)
        with pytest.raises(ValidationError):
            find_cuts(np.array([-1.0, 2.0]), n_points=1)
        with pytest.raises(ValidationError):
            find_cuts(np.ones(8), min_prominence=2.0)
        with pytest.raises(ValidationError):
            find_cuts(np.ones((2, 2, 8)))
        with pytest.raises(ValidationError):
            find_cuts(np.ones((2, 8)), return_diagnostics=True)

    def test_stack_cuts_each_row(self):
        counts = bimodal_counts()
        stack = np.stack([counts, np.zeros(64), counts[::-1]])
        cuts = find_cuts(stack, n_points=2000)
        assert [c.tolist() for c in cuts] == [
            find_cuts(row, n_points=2000).tolist() for row in stack
        ]
        assert cuts[1].size == 0

    def test_explicit_window_respected(self):
        counts = bimodal_counts()
        wide = find_cuts(counts, window=31)
        # A window covering half the histogram erases both modes.
        assert wide.size <= 1

    def test_single_bin_histogram(self):
        assert find_cuts(np.array([5.0]), n_points=5).size == 0

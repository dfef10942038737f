"""Tests for interval/label mapping kernels."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kernels.labels import interval_id_table, intervals_for_bins


class TestIntervalsForBins:
    def test_no_cuts_single_interval(self):
        bins = np.array([[0], [5], [15]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.empty(0, dtype=np.int64)])
        assert iv.ravel().tolist() == [0, 0, 0]

    def test_single_cut_splits(self):
        bins = np.array([[0], [7], [8], [15]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.array([7])])
        # searchsorted right: bin <= 7 → interval 0, bin > 7 → interval 1
        assert iv.ravel().tolist() == [0, 0, 1, 1]

    def test_multiple_cuts(self):
        bins = np.array([[0], [3], [4], [10], [11]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.array([3, 10])])
        assert iv.ravel().tolist() == [0, 0, 1, 1, 2]

    def test_per_dimension_cuts(self):
        bins = np.array([[0, 9], [9, 0]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.array([4]), np.array([4])])
        assert iv.tolist() == [[0, 1], [1, 0]]

    def test_cut_count_mismatch(self):
        with pytest.raises(ValidationError):
            intervals_for_bins(np.zeros((2, 2), dtype=np.int32), [np.array([1])])


class TestIntervalIdTable:
    def test_gather_equals_searchsorted(self, rng):
        cuts = [np.array([3, 10]), np.empty(0, dtype=np.int64), np.array([0, 14])]
        table = interval_id_table(cuts, 16)
        bins = rng.integers(0, 16, (200, 3)).astype(np.int32)
        gathered = np.stack([table[j, bins[:, j]] for j in range(3)], axis=1)
        assert np.array_equal(gathered, intervals_for_bins(bins, cuts))

    def test_rejects_cuts_outside_grid_or_unsorted(self):
        for bad in ([np.array([15])], [np.array([-1])], [np.array([4, 4])]):
            with pytest.raises(ValidationError):
                interval_id_table(bad, 16)

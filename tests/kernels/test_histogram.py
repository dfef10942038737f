"""Tests for the oracle's histogram accumulation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from tests.kernels.oracle import accumulate_histogram


class TestAccumulateHistogram:
    def test_counts_simple(self):
        bins = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int32)
        h = accumulate_histogram(bins, n_bins=2)
        assert h.tolist() == [[2, 1], [1, 2]]

    def test_total_equals_points(self, rng):
        bins = rng.integers(0, 8, size=(100, 3)).astype(np.int32)
        h = accumulate_histogram(bins, 8)
        assert np.all(h.sum(axis=1) == 100)

    def test_matches_numpy_histogram(self, rng):
        bins = rng.integers(0, 16, size=(500, 1)).astype(np.int32)
        h = accumulate_histogram(bins, 16)
        expected = np.bincount(bins.ravel(), minlength=16)
        assert np.array_equal(h[0], expected)

    def test_in_place_accumulation(self, rng):
        bins = rng.integers(0, 4, size=(50, 2)).astype(np.int32)
        acc = np.zeros((2, 4), dtype=np.int64)
        accumulate_histogram(bins, 4, out=acc)
        accumulate_histogram(bins, 4, out=acc)
        single = accumulate_histogram(bins, 4)
        assert np.array_equal(acc, single * 2)

    def test_empty_input(self):
        h = accumulate_histogram(np.empty((0, 2), dtype=np.int32), 4)
        assert h.shape == (2, 4)
        assert h.sum() == 0

    def test_wrong_out_shape(self):
        with pytest.raises(ValidationError):
            accumulate_histogram(
                np.zeros((3, 2), dtype=np.int32), 4,
                out=np.zeros((2, 8), dtype=np.int64),
            )

    def test_1d_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_histogram(np.zeros(3, dtype=np.int32), 4)

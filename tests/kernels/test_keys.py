"""Tests for hierarchical key/bin kernels."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kernels.keys import bin_indices
from tests.kernels.oracle import (
    bin_indices_at_depths,
    pack_keys,
    prefix_bins,
    unpack_keys,
)
from tests.kernels.test_fused import fused_one


class TestBinIndices:
    def test_unit_range_depth1(self):
        x = np.array([[0.1], [0.9]])
        bins = bin_indices(x, [0.0], [1.0], depth=1)
        assert bins.ravel().tolist() == [0, 1]

    def test_depth_gives_2_pow_d_bins(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        bins = bin_indices(x, [0.0], [1.0], depth=4)
        assert bins.min() == 0
        assert bins.max() == 15

    def test_out_of_range_clipped(self):
        x = np.array([[-5.0], [5.0]])
        bins = bin_indices(x, [0.0], [1.0], depth=3)
        assert bins.ravel().tolist() == [0, 7]

    def test_boundary_value_in_last_bin(self):
        x = np.array([[1.0]])
        bins = bin_indices(x, [0.0], [1.0], depth=3)
        assert bins[0, 0] == 7

    def test_per_dimension_ranges(self):
        x = np.array([[0.5, 50.0]])
        bins = bin_indices(x, [0.0, 0.0], [1.0, 100.0], depth=2)
        assert bins.ravel().tolist() == [2, 2]

    def test_monotonic_in_value(self, rng):
        vals = np.sort(rng.random(50)).reshape(-1, 1)
        bins = bin_indices(vals, [0.0], [1.0], depth=5).ravel()
        assert np.all(np.diff(bins) >= 0)

    def test_invalid_depth(self):
        with pytest.raises(ValidationError):
            bin_indices(np.zeros((1, 1)), [0], [1], depth=0)
        with pytest.raises(ValidationError):
            bin_indices(np.zeros((1, 1)), [0], [1], depth=32)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValidationError):
            bin_indices(np.zeros((1, 1)), [1.0], [1.0], depth=2)

    def test_range_length_mismatch(self):
        with pytest.raises(ValidationError):
            bin_indices(np.zeros((2, 2)), [0.0], [1.0], depth=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_row_index(self, rng, bad):
        # Regression: NaN used to survive the float floor and take an
        # undefined int32 cast, yielding a wrong-but-plausible bin.
        x = rng.random((20, 3))
        x[11, 2] = bad
        with pytest.raises(ValidationError, match=r"row\(s\) 11"):
            bin_indices(x, [0] * 3, [1] * 3, depth=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_on_fused_path(self, rng, bad):
        # The same batch must be rejected by the fused kernel path too.
        x = rng.random((20, 3))
        x[11, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            fused_one(
                x, None, [0.0] * 3, [1.0] * 3, (4,), backend="numpy"
            )


class TestPrefixBins:
    def test_prefix_is_right_shift(self, rng):
        x = rng.random((40, 2))
        deep = bin_indices(x, [0, 0], [1, 1], depth=6)
        shallow = prefix_bins(deep, 6, 3)
        direct = bin_indices(x, [0, 0], [1, 1], depth=3)
        assert np.array_equal(shallow, direct)

    def test_same_depth_identity(self, rng):
        deep = bin_indices(rng.random((5, 1)), [0], [1], 4)
        assert np.array_equal(prefix_bins(deep, 4, 4), deep)

    def test_invalid_direction(self):
        with pytest.raises(ValidationError):
            prefix_bins(np.zeros((1, 1), dtype=np.int32), 3, 5)

    def test_hierarchy_consistency_all_depths(self, rng):
        """Depth-d bins must equal the prefix of depth-d' bins for d < d'."""
        x = rng.random((60, 3)) * 7 - 3
        lo, hi = [-3.5] * 3, [4.5] * 3
        deepest = bin_indices(x, lo, hi, 8)
        for d in range(1, 8):
            assert np.array_equal(
                prefix_bins(deepest, 8, d), bin_indices(x, lo, hi, d)
            )


class TestBinIndicesAtDepths:
    def test_returns_all_requested(self, rng):
        x = rng.random((10, 2))
        result = bin_indices_at_depths(x, [0, 0], [1, 1], [2, 4, 6])
        assert set(result) == {2, 4, 6}

    def test_duplicates_collapsed(self, rng):
        x = rng.random((10, 1))
        result = bin_indices_at_depths(x, [0], [1], [3, 3])
        assert list(result) == [3]

    def test_empty_depths_rejected(self):
        with pytest.raises(ValidationError):
            bin_indices_at_depths(np.zeros((1, 1)), [0], [1], [])


class TestPackKeys:
    def test_round_trip(self, rng):
        bins = rng.integers(0, 16, size=(50, 3)).astype(np.int32)
        keys = pack_keys(bins, depth=4)
        recovered = unpack_keys(keys, depth=4, n_dims=3)
        assert np.array_equal(bins, recovered)

    def test_known_value(self):
        bins = np.array([[1, 2, 3]])
        keys = pack_keys(bins, depth=4)
        assert keys[0] == (1 << 8) | (2 << 4) | 3

    def test_distinct_bins_distinct_keys(self, rng):
        bins = rng.integers(0, 8, size=(200, 4)).astype(np.int32)
        keys = pack_keys(bins, depth=3)
        _, first_idx = np.unique(keys, return_index=True)
        uniq_rows = np.unique(bins, axis=0)
        assert len(first_idx) == len(uniq_rows)

    def test_bit_budget_enforced(self):
        with pytest.raises(ValidationError):
            pack_keys(np.zeros((1, 10), dtype=np.int32), depth=7)  # 70 bits

    def test_1d_input_rejected(self):
        with pytest.raises(ValidationError):
            pack_keys(np.zeros(4, dtype=np.int32), depth=2)

    def test_out_of_range_bin_rejected(self):
        # Regression: a bin ≥ 2^depth used to bleed bits into the
        # neighboring dimension's key field, silently corrupting keys.
        bins = np.array([[1, 16, 2]], dtype=np.int32)  # 16 needs 5 bits
        with pytest.raises(ValidationError, match="bleed"):
            pack_keys(bins, depth=4)

    def test_negative_bin_rejected(self):
        with pytest.raises(ValidationError, match="pack_keys"):
            pack_keys(np.array([[-1, 0]], dtype=np.int32), depth=4)

    def test_float_bins_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            pack_keys(np.array([[1.0, 2.0]]), depth=4)

    def test_boundary_bin_accepted(self):
        keys = pack_keys(np.array([[15, 15]], dtype=np.int32), depth=4)
        assert keys[0] == (15 << 4) | 15

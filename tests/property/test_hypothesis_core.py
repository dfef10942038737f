"""Property-based tests (hypothesis) for core data structures and kernels."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.binning import SpaceRange
from repro.core.partitioning import find_cuts
from repro.core.smoothing import local_slopes_rows, moving_average_rows
from repro.kernels.keys import bin_indices
from tests.kernels.oracle import pack_keys, prefix_bins, unpack_keys

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


finite_matrix = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 40), st.integers(1, 5)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestBinningProperties:
    @COMMON
    @given(finite_matrix, st.integers(1, 8))
    def test_bins_in_range(self, x, depth):
        sr = SpaceRange.from_data(x, margin=0.01)
        bins = bin_indices(x, sr.r_min, sr.r_max, depth)
        assert bins.min() >= 0
        assert bins.max() < (1 << depth)

    @COMMON
    @given(finite_matrix, st.integers(2, 8), st.integers(1, 7))
    # A span near the float64 minimum once collapsed to bin 0 at depths 2
    # and 3 but not at depth 1 (bin_scale's degenerate-span rule depended
    # on depth).
    @example(x=np.array([[1.11253693e-308], [0.0]]), deep=2, shallow=1)
    def test_hierarchy_prefix_property(self, x, deep, shallow):
        if shallow >= deep:
            shallow = deep - 1
        sr = SpaceRange.from_data(x, margin=0.01)
        deep_bins = bin_indices(x, sr.r_min, sr.r_max, deep)
        assert np.array_equal(
            prefix_bins(deep_bins, deep, shallow),
            bin_indices(x, sr.r_min, sr.r_max, shallow),
        )

    @COMMON
    @given(finite_matrix)
    def test_order_preserved_per_dimension(self, x):
        """Binning is monotone: sorting by value sorts bin indices."""
        sr = SpaceRange.from_data(x, margin=0.01)
        bins = bin_indices(x, sr.r_min, sr.r_max, 6)
        for j in range(x.shape[1]):
            order = np.argsort(x[:, j], kind="stable")
            assert np.all(np.diff(bins[order, j]) >= 0)


class TestKeyPackingProperties:
    @COMMON
    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=st.tuples(st.integers(1, 30), st.integers(1, 6)),
            elements=st.integers(0, 255),
        ),
        st.integers(1, 8),
    )
    def test_pack_unpack_roundtrip(self, bins, depth):
        bins = bins % (1 << depth)
        if depth * bins.shape[1] > 63:
            return
        keys = pack_keys(bins, depth)
        assert np.array_equal(unpack_keys(keys, depth, bins.shape[1]), bins)

    @COMMON
    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=st.tuples(st.integers(2, 30), st.just(3)),
            elements=st.integers(0, 15),
        )
    )
    def test_pack_injective(self, bins):
        keys = pack_keys(bins, 4)
        uniq_rows = np.unique(bins, axis=0).shape[0]
        assert np.unique(keys).size == uniq_rows


class TestSmoothingProperties:
    @COMMON
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(3, 100),
            elements=st.floats(0, 1e4, allow_nan=False),
        ),
        st.integers(1, 15),
    )
    def test_moving_average_bounded_by_extremes(self, y, window):
        sm = moving_average_rows(y[None, :], window)[0]
        assert sm.min() >= y.min() - 1e-9
        assert sm.max() <= y.max() + 1e-9

    @COMMON
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.integers(3, 9),
    )
    def test_slopes_exact_on_lines(self, intercept, slope, window):
        y = intercept + slope * np.arange(40, dtype=float)
        slopes = local_slopes_rows(y[None, :], window)[0]
        h = max(1, window // 2)
        assert np.allclose(slopes[h:-h], slope, atol=1e-8)


class TestFindCutsProperties:
    @COMMON
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(4, 128),
            elements=st.floats(0, 1e5, allow_nan=False),
        )
    )
    def test_cuts_always_valid(self, counts):
        cuts = find_cuts(counts)
        if cuts.size:
            assert np.all(np.diff(cuts) > 0)
            assert cuts.min() >= 0
            assert cuts.max() < counts.size - 1

    @COMMON
    @given(st.integers(0, 2**32 - 1))
    def test_separated_blocks_get_cut(self, seed):
        rng = np.random.default_rng(seed)
        counts = np.zeros(64)
        a = rng.integers(2, 12)
        b = rng.integers(40, 56)
        counts[a : a + 6] = rng.integers(50, 200, 6)
        counts[b : b + 6] = rng.integers(50, 200, 6)
        cuts = find_cuts(counts)
        assert any(a + 5 <= c < b for c in cuts)

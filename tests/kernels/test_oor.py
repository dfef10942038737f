"""Out-of-range accounting in the binning kernels (all paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kernels.backend import NumpyBackend, available_backends, get_backend
from repro.kernels.fused import FusedStateSpec, fused_partial_fit
from repro.kernels.keys import bin_scale
from tests.kernels.oracle import bin_indices

DEPTH = 4
N_BINS = 1 << DEPTH


def _batch(rng, m=200, n=3):
    x = rng.uniform(-2.0, 2.0, size=(m, n))
    r_min = np.full(n, -1.0)
    r_max = np.full(n, 1.0)
    return x, r_min, r_max


def _expected_oor(x, r_min, r_max):
    lo = (x < r_min).sum(axis=0).astype(np.int64)
    hi = (x > r_max).sum(axis=0).astype(np.int64)
    return lo, hi


class TestBinScaleValidation:
    def test_nan_bound_names_dimension(self):
        r_min = np.array([0.0, np.nan, 0.0])
        r_max = np.array([1.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match=r"dimension\(s\) 1"):
            bin_scale(r_min, r_max, DEPTH)

    def test_inf_bound_names_dimension(self):
        r_min = np.array([0.0, 0.0])
        r_max = np.array([np.inf, 1.0])
        with pytest.raises(ValidationError, match=r"dimension\(s\) 0"):
            bin_scale(r_min, r_max, DEPTH)

    def test_many_bad_dims_truncates_listing(self):
        n = 12
        r_min = np.full(n, np.nan)
        r_max = np.ones(n)
        with pytest.raises(ValidationError, match="12 dims total"):
            bin_scale(r_min, r_max, DEPTH)

    def test_finite_bounds_pass(self):
        r_min, scale = bin_scale(np.zeros(2), np.ones(2), DEPTH)
        assert np.all(np.isfinite(scale))


class TestBinIndicesOor:
    def test_counts_match_direct_comparison(self, rng):
        x, r_min, r_max = _batch(rng)
        lo = np.zeros(3, dtype=np.int64)
        hi = np.zeros(3, dtype=np.int64)
        idx = bin_indices(x, r_min, r_max, DEPTH, oor_low=lo, oor_high=hi)
        exp_lo, exp_hi = _expected_oor(x, r_min, r_max)
        np.testing.assert_array_equal(lo, exp_lo)
        np.testing.assert_array_equal(hi, exp_hi)
        # Clipping semantics unchanged: OOR rows land in the edge bins.
        assert idx.min() >= 0 and idx.max() < N_BINS

    def test_counters_accumulate_across_calls(self, rng):
        x, r_min, r_max = _batch(rng)
        lo = np.zeros(3, dtype=np.int64)
        hi = np.zeros(3, dtype=np.int64)
        bin_indices(x, r_min, r_max, DEPTH, oor_low=lo, oor_high=hi)
        once_lo, once_hi = lo.copy(), hi.copy()
        bin_indices(x, r_min, r_max, DEPTH, oor_low=lo, oor_high=hi)
        np.testing.assert_array_equal(lo, 2 * once_lo)
        np.testing.assert_array_equal(hi, 2 * once_hi)

    def test_in_range_counts_zero(self, rng):
        x = rng.uniform(0.1, 0.9, size=(100, 2))
        lo = np.zeros(2, dtype=np.int64)
        hi = np.zeros(2, dtype=np.int64)
        bin_indices(x, np.zeros(2), np.ones(2), DEPTH, oor_low=lo, oor_high=hi)
        assert lo.sum() == 0 and hi.sum() == 0

    def test_both_or_neither(self, rng):
        x, r_min, r_max = _batch(rng)
        with pytest.raises(ValidationError):
            bin_indices(x, r_min, r_max, DEPTH,
                        oor_low=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValidationError):
            bin_indices(x, r_min, r_max, DEPTH,
                        oor_high=np.zeros(3, dtype=np.int64))

    def test_tracked_indices_equal_untracked(self, rng):
        x, r_min, r_max = _batch(rng)
        plain = bin_indices(x, r_min, r_max, DEPTH)
        lo = np.zeros(3, dtype=np.int64)
        hi = np.zeros(3, dtype=np.int64)
        tracked = bin_indices(x, r_min, r_max, DEPTH, oor_low=lo, oor_high=hi)
        np.testing.assert_array_equal(plain, tracked)


class TestBackendOor:
    def _spec_run(self, backend, x, r_min, r_max):
        n = x.shape[1]
        proj = np.eye(n)
        spec = FusedStateSpec(matrix=proj, r_min=r_min, r_max=r_max,
                              depths=(DEPTH,))
        res = fused_partial_fit(x, [spec], backend=backend)[0]
        return res

    @pytest.mark.parametrize("backend", [
        name for name, ok in available_backends().items() if ok
    ])
    def test_fused_oor_matches_direct(self, rng, backend):
        x, r_min, r_max = _batch(rng)
        res = self._spec_run(get_backend(backend), x, r_min, r_max)
        exp_lo, exp_hi = _expected_oor(x, r_min, r_max)
        np.testing.assert_array_equal(res.oor_low, exp_lo)
        np.testing.assert_array_equal(res.oor_high, exp_hi)

    def test_numpy_backend_counts_at_chunk_level(self, rng):
        backend = NumpyBackend()
        x, r_min, r_max = _batch(rng, m=50, n=2)
        r_minv, scale = bin_scale(r_min, r_max, DEPTH)
        work = np.ascontiguousarray(x.T)  # dimension-major chunk
        hist_flat = np.zeros(2 * N_BINS, dtype=np.int64)
        lo = np.zeros(2, dtype=np.int64)
        hi = np.zeros(2, dtype=np.int64)
        backend.fused_chunk(work, r_minv, scale, N_BINS,
                            hist_flat=hist_flat, oor_low=lo, oor_high=hi)
        exp_lo, exp_hi = _expected_oor(x, r_min, r_max)
        np.testing.assert_array_equal(lo, exp_lo)
        np.testing.assert_array_equal(hi, exp_hi)

    def test_track_bounds_reports_observed_extremes(self, rng):
        x, r_min, r_max = _batch(rng)
        n = x.shape[1]
        spec = FusedStateSpec(matrix=np.eye(n), r_min=r_min,
                              r_max=r_max, depths=(DEPTH,))
        res = fused_partial_fit(x, [spec], backend=NumpyBackend(),
                                track_bounds=True)[0]
        np.testing.assert_allclose(res.obs_lo, x.min(axis=0))
        np.testing.assert_allclose(res.obs_hi, x.max(axis=0))

    def test_bounds_off_by_default(self, rng):
        x, r_min, r_max = _batch(rng)
        res = self._spec_run(NumpyBackend(), x, r_min, r_max)
        assert res.obs_lo is None and res.obs_hi is None

"""Tests for the fused projection → bin → histogram → key driver."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kernels.backend import available_backends
from repro.kernels.fused import (
    FusedStateSpec,
    decode_key_codes,
    fused_bin_points,
    fused_partial_fit,
    prefix_histograms,
    projected_bounds,
)
from tests.kernels.oracle import (
    accumulate_histogram,
    bin_indices,
    prefix_bins,
    project_points,
)

AVAILABLE_BACKENDS = [name for name, ok in available_backends().items() if ok]


def _reference(x, matrix, r_min, r_max, depths):
    """The unfused kernel chain the fused path must reproduce bit-for-bit."""
    projected = x if matrix is None else project_points(x, matrix)
    depths = sorted(set(depths))
    deepest = depths[-1]
    deep = bin_indices(projected, r_min, r_max, deepest)
    hist = {}
    for d in depths:
        b = deep if d == deepest else prefix_bins(deep, deepest, d)
        out = np.zeros((projected.shape[1], 1 << d), dtype=np.int64)
        accumulate_histogram(b, 1 << d, out=out)
        hist[d] = out
    rows = np.unique(deep.astype(np.uint8), axis=0)
    # np.unique(axis=0) sorts rows lexicographically — same order as the
    # fused path's byte-encoded codes.
    counts = np.array(
        [(deep == r).all(axis=1).sum() for r in rows], dtype=np.int64
    )
    return hist, rows, counts


def fused_one(x, matrix, r_min, r_max, depths, **kwargs):
    """``fused_partial_fit`` over one state."""
    (res,) = fused_partial_fit(
        x, [FusedStateSpec(matrix, r_min, r_max, depths)], **kwargs
    )
    return res


def _spec_for(x, matrix, depths, rng_margin=0.25):
    projected = x if matrix is None else x @ matrix
    r_min = projected.min(axis=0) - rng_margin
    r_max = projected.max(axis=0) + rng_margin
    return r_min, r_max


class TestProjectBinCount:
    @pytest.mark.parametrize("chunk_size", [None, 17, 1000, 10_000])
    def test_matches_reference_chain(self, rng, chunk_size):
        x = rng.standard_normal((257, 12))
        matrix = rng.standard_normal((12, 4))
        r_min, r_max = _spec_for(x, matrix, (3, 5))
        res = fused_one(
            x, matrix, r_min, r_max, (3, 5), backend="numpy",
            chunk_size=chunk_size,
        )
        hist, rows, counts = _reference(x, matrix, r_min, r_max, (3, 5))
        for d in (3, 5):
            assert np.array_equal(res.hist[d], hist[d])
        assert np.array_equal(res.key_rows, rows)
        assert np.array_equal(res.key_counts, counts)
        assert res.n_rows == 257

    def test_no_projection_matrix(self, rng):
        x = rng.standard_normal((64, 3))
        r_min, r_max = _spec_for(x, None, (4,))
        res = fused_one(x, None, r_min, r_max, (4,), backend="numpy")
        hist, rows, counts = _reference(x, None, r_min, r_max, (4,))
        assert np.array_equal(res.hist[4], hist[4])
        assert np.array_equal(res.key_rows, rows)
        assert np.array_equal(res.key_counts, counts)

    def test_wide_state_falls_back_to_rows(self, rng):
        x = rng.standard_normal((120, 16))
        matrix = rng.standard_normal((16, 10))  # > 8 dims: no uint64 code
        r_min, r_max = _spec_for(x, matrix, (2, 3))
        res = fused_one(x, matrix, r_min, r_max, (2, 3), backend="numpy")
        assert res.key_codes is None
        hist, rows, counts = _reference(x, matrix, r_min, r_max, (2, 3))
        assert np.array_equal(res.key_rows, rows)
        assert np.array_equal(res.key_counts, counts)
        for d in (2, 3):
            assert np.array_equal(res.hist[d], hist[d])

    def test_empty_batch(self, rng):
        x = np.empty((0, 5))
        matrix = rng.standard_normal((5, 2))
        res = fused_one(x, matrix, [-1, -1], [1, 1], (3,), backend="numpy")
        assert res.n_rows == 0
        assert res.key_rows.shape[0] == 0
        assert res.key_counts.shape == (0,)
        assert res.key_codes.shape == (0,)
        assert res.hist[3].sum() == 0

    def test_codes_decode_to_rows(self, rng):
        x = rng.standard_normal((90, 6))
        matrix = rng.standard_normal((6, 5))
        r_min, r_max = _spec_for(x, matrix, (4,))
        res = fused_one(x, matrix, r_min, r_max, (4,), backend="numpy")
        assert np.array_equal(decode_key_codes(res.key_codes, 5), res.key_rows)

    def test_nan_input_raises_with_row_index(self, rng):
        x = rng.standard_normal((40, 4))
        x[23, 1] = np.nan
        matrix = rng.standard_normal((4, 2))
        with pytest.raises(ValidationError, match="row 23"):
            fused_one(x, matrix, [-9, -9], [9, 9], (3,), backend="numpy")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_input_raises(self, rng, bad):
        x = rng.standard_normal((40, 4))
        x[7, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            fused_one(x, None, [-9] * 4, [9] * 4, (3,), backend="numpy")


class TestFusedPartialFit:
    def test_multi_state_shared_gemm(self, rng):
        x = rng.standard_normal((150, 10))
        specs = []
        expected = []
        for n_rp, depths in ((3, (2, 4)), (5, (4,)), (2, (1, 3))):
            matrix = rng.standard_normal((10, n_rp))
            r_min, r_max = _spec_for(x, matrix, depths)
            specs.append(FusedStateSpec(matrix, r_min, r_max, depths))
            expected.append(_reference(x, matrix, r_min, r_max, depths))
        results = fused_partial_fit(x, specs, backend="numpy", chunk_size=64)
        for res, (hist, rows, counts) in zip(results, expected):
            for d in hist:
                assert np.array_equal(res.hist[d], hist[d])
            assert np.array_equal(res.key_rows, rows)
            assert np.array_equal(res.key_counts, counts)

    def test_mixed_projected_and_raw_states(self, rng):
        x = rng.standard_normal((80, 4))
        matrix = rng.standard_normal((4, 3))
        rm1, rx1 = _spec_for(x, matrix, (3,))
        rm2, rx2 = _spec_for(x, None, (2,))
        results = fused_partial_fit(
            x,
            [
                FusedStateSpec(matrix, rm1, rx1, (3,)),
                FusedStateSpec(None, rm2, rx2, (2,)),
            ],
            backend="numpy",
        )
        h1, r1, c1 = _reference(x, matrix, rm1, rx1, (3,))
        h2, r2, c2 = _reference(x, None, rm2, rx2, (2,))
        assert np.array_equal(results[0].hist[3], h1[3])
        assert np.array_equal(results[1].hist[2], h2[2])
        assert np.array_equal(results[1].key_rows, r2)

    def test_no_specs_rejected(self, rng):
        with pytest.raises(ValidationError):
            fused_partial_fit(rng.standard_normal((5, 2)), [])

    def test_bad_chunk_size_rejected(self, rng):
        x = rng.standard_normal((5, 2))
        spec = FusedStateSpec(None, np.array([-9.0, -9.0]), np.array([9.0, 9.0]), (2,))
        with pytest.raises(ValidationError):
            fused_partial_fit(x, [spec], chunk_size=0)

    def test_depth_over_8_rejected(self, rng):
        x = rng.standard_normal((5, 2))
        spec = FusedStateSpec(None, np.array([-9.0, -9.0]), np.array([9.0, 9.0]), (9,))
        with pytest.raises(ValidationError, match="depths"):
            fused_partial_fit(x, [spec])

    def test_matrix_shape_mismatch_rejected(self, rng):
        x = rng.standard_normal((5, 3))
        matrix = rng.standard_normal((4, 2))  # expects 4 features, x has 3
        spec = FusedStateSpec(matrix, np.zeros(2), np.ones(2), (2,))
        with pytest.raises(ValidationError, match="features"):
            fused_partial_fit(x, [spec])

    def test_launch_metrics_recorded(self, rng):
        from repro.obs import default_registry

        reg = default_registry()
        if not reg.enabled:
            reg.enable()
        before = reg.counter(
            "kernel_fused_rows_total",
            "Points processed by the fused kernel path, per backend.",
            ("backend",),
        ).labels(backend="numpy").value
        x = rng.standard_normal((33, 4))
        spec = FusedStateSpec(
            None, np.full(4, -9.0), np.full(4, 9.0), (3,)
        )
        fused_partial_fit(x, [spec], backend="numpy", chunk_size=10)
        after = reg.counter(
            "kernel_fused_rows_total",
            "Points processed by the fused kernel path, per backend.",
            ("backend",),
        ).labels(backend="numpy").value
        assert after - before == 33


class TestDecodeKeyCodes:
    def test_round_trip(self, rng):
        rows = rng.integers(0, 256, size=(30, 6)).astype(np.uint8)
        buf = np.zeros((30, 8), dtype=np.uint8)
        buf[:, :6] = rows
        codes = buf.view(">u8").ravel().astype(np.uint64)
        assert np.array_equal(decode_key_codes(codes, 6), rows)

    def test_invalid_width(self):
        with pytest.raises(ValidationError):
            decode_key_codes(np.zeros(1, dtype=np.uint64), 9)
        with pytest.raises(ValidationError):
            decode_key_codes(np.zeros(1, dtype=np.uint64), 0)


class TestFusedBinPoints:
    """The whole-dataset pass batch and SPMD fits run."""

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    @pytest.mark.parametrize("depths", [(3, 5), (6, 9), (4, 12), (16,)])
    @pytest.mark.parametrize("chunk_size", [None, 1, 33])
    def test_raw_state_matches_reference_chain(self, rng, backend, depths,
                                               chunk_size):
        """No GEMM runs for ``matrix=None``, so bins and histograms are
        bit-identical to the reference kernels at every depth, uint16
        bins above depth 8 included, on every backend."""
        x = rng.standard_normal((101, 5))
        r_min, r_max = _spec_for(x, None, depths)
        (got,) = fused_bin_points(
            x, [FusedStateSpec(None, r_min, r_max, depths)],
            backend=backend, chunk_size=chunk_size,
        )
        deep = bin_indices(x, r_min, r_max, max(depths))
        assert got.rows.dtype == (np.uint16 if max(depths) > 8 else np.uint8)
        assert np.array_equal(got.rows.T, deep)
        assert np.array_equal(
            got.deep, accumulate_histogram(deep, 1 << max(depths))
        )
        hist = prefix_histograms(got.deep, depths)
        for d in depths:
            shallow = prefix_bins(deep, max(depths), d)
            assert np.array_equal(hist[d], accumulate_histogram(shallow, 1 << d))

    def test_several_states_match_partial_fit_histograms(self, rng):
        x = rng.standard_normal((300, 10))
        specs = []
        for n_rp in (3, 9):
            matrix = rng.standard_normal((10, n_rp))
            specs.append(FusedStateSpec(matrix, *_spec_for(x, matrix, (4, 6)), (4, 6)))
        specs.append(FusedStateSpec(None, *_spec_for(x, None, (4, 6)), (4, 6)))
        points = fused_bin_points(x, specs, backend="numpy", chunk_size=64)
        keyed = fused_partial_fit(x, specs, backend="numpy", chunk_size=64)
        for p, k in zip(points, keyed):
            assert np.array_equal(p.deep, k.hist[6])
            rows, counts = np.unique(p.rows.T, axis=0, return_counts=True)
            assert np.array_equal(rows, k.key_rows)
            assert np.array_equal(counts, k.key_counts)

    def test_depth_over_16_rejected(self, rng):
        spec = FusedStateSpec(None, np.full(2, -9.0), np.full(2, 9.0), (17,))
        with pytest.raises(ValidationError, match="depths"):
            fused_bin_points(rng.standard_normal((5, 2)), [spec])

    def test_non_finite_row_named(self, rng):
        x = rng.standard_normal((50, 3))
        x[41, 1] = np.nan
        spec = FusedStateSpec(None, np.full(3, -9.0), np.full(3, 9.0), (3,))
        with pytest.raises(ValidationError, match="row 41"):
            fused_bin_points(x, [spec], chunk_size=16)


class TestProjectedBounds:
    def test_matches_per_state_min_max(self, rng):
        x = rng.standard_normal((500, 8))
        matrices = [rng.standard_normal((8, 3)), None, rng.standard_normal((8, 5))]
        bounds = projected_bounds(x, matrices, chunk_size=64)
        want = [
            np.stack([p.min(axis=0), p.max(axis=0)])
            for p in (x @ matrices[0], x, x @ matrices[2])
        ]
        assert [b.shape for b in bounds] == [(2, 3), (2, 8), (2, 5)]
        for got, expected in zip(bounds, want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n_features, n_rp, t",
                             [(64, 7, 8), (24, 10, 3), (16, 3, 3)])
    def test_independent_of_chunking(self, rng, n_features, n_rp, t):
        """Bounds set the shared range of an SPMD fit, so any split of the
        rows must give the same bits — a one-row chunk included."""
        x = rng.standard_normal((1000, n_features))
        matrices = [rng.standard_normal((n_features, n_rp)) for _ in range(t)]
        whole = np.hstack(projected_bounds(x, matrices, chunk_size=None))
        for chunk_size in (1, 7, 193, 453, 999):
            got = np.hstack(projected_bounds(x, matrices, chunk_size=chunk_size))
            assert np.array_equal(got, whole), chunk_size
        for cut in (1, 453, 999):
            head = np.hstack(projected_bounds(x[:cut], matrices))
            tail = np.hstack(projected_bounds(x[cut:], matrices))
            merged = np.stack([np.minimum(head[0], tail[0]),
                               np.maximum(head[1], tail[1])])
            assert np.array_equal(merged, whole), cut

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_named(self, rng, bad):
        x = rng.standard_normal((70, 4))
        x[66, 3] = bad
        with pytest.raises(ValidationError, match="row 66"):
            projected_bounds(x, [rng.standard_normal((4, 2))], chunk_size=32)
        with pytest.raises(ValidationError, match="row 66"):
            projected_bounds(x, [None], chunk_size=32)

    def test_overflowing_projection_rejected(self):
        x = np.full((4, 2), 1e308)
        with pytest.raises(ValidationError, match="row 0"):
            projected_bounds(x, [np.full((2, 1), 10.0)])

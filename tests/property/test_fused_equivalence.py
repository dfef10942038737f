"""Property-based equivalence: fused kernel path vs the reference chain.

The fused engine's contract is *bit-identity* with the reference chain of
``tests/kernels/oracle.py`` (``bin_indices`` → ``prefix_bins`` →
``accumulate_histogram`` → key counting) for every backend, depth combination, and chunking — including
chunk sizes larger than the batch and empty batches.

Scope of the guarantee: bit-identity holds **given identical projected
coordinates**. The ``matrix=None`` (raw-features) cases below prove it
unconditionally — no GEMM runs, so every float entering the binning
recipe is shared with the reference path by construction. For projected
states, the batched GEMM may round a dot product 1 ulp differently than
the reference's per-state GEMM on some BLAS kernel shapes, which can
move a point across a bin boundary only if it lies within an ulp of one
— a measure-zero event for points in generic position, exercised here
with batches of ≥ 2 points (an M = 1 stream is the one *systematic*
knife edge: its range midpoint IS the point).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingKeyBin2
from repro.kernels.backend import available_backends
from repro.kernels.fused import prefix_histograms
from tests.kernels.oracle import (
    accumulate_histogram,
    bin_indices,
    prefix_bins,
    project_points,
    reference_partial_fit,
)
from tests.kernels.test_fused import depth_tables, fused_one

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = [name for name, ok in available_backends().items() if ok]


def _reference_state(x, matrix, r_min, r_max, depths):
    projected = x if matrix is None else project_points(x, matrix)
    deepest = max(depths)
    deep = bin_indices(projected, r_min, r_max, deepest)
    hist = {}
    for d in depths:
        b = deep if d == deepest else prefix_bins(deep, deepest, d)
        out = np.zeros((projected.shape[1], 1 << d), dtype=np.int64)
        accumulate_histogram(b, 1 << d, out=out)
        hist[d] = out
    rows, counts = np.unique(deep.astype(np.uint8), axis=0, return_counts=True)
    return hist, rows, counts.astype(np.int64)


def _assert_matches_reference(res, x, matrix, r_min, r_max, depths, width):
    m = x.shape[0]
    derived = depth_tables(res, depths)
    if m == 0:
        assert res.key_rows.shape[0] == 0
        assert all(derived[d].sum() == 0 for d in depths)
        return
    hist, rows, counts = _reference_state(x, matrix, r_min, r_max, depths)
    for d in depths:
        assert np.array_equal(derived[d], hist[d])
    assert np.array_equal(res.key_rows, rows)
    assert np.array_equal(res.key_counts, counts)
    # Histogram mass equals points in every depth (conservation).
    for d in depths:
        assert derived[d].sum() == m * width


@st.composite
def raw_cases(draw):
    """Cases binning raw features: no GEMM, unconditional bit-identity."""
    m = draw(st.integers(0, 120))  # includes empty and single-point batches
    width = draw(st.integers(1, 10))  # > 8 exercises the wide-key fallback
    depths = tuple(
        sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    )
    chunk = draw(st.sampled_from([1, 7, 64, 1000, None]))
    seed = draw(st.integers(0, 2**31 - 1))
    return m, width, depths, chunk, seed


@st.composite
def projected_cases(draw):
    """Cases running the batched GEMM, with points in generic position."""
    m = draw(st.integers(2, 120))
    n_features = draw(st.integers(1, 12))
    n_dims = draw(st.integers(1, 10))
    depths = tuple(
        sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    )
    chunk = draw(st.sampled_from([1, 7, 64, 1000, None]))
    seed = draw(st.integers(0, 2**31 - 1))
    return m, n_features, n_dims, depths, chunk, seed


class TestProjectBinCountEquivalence:
    @COMMON
    @given(raw_cases(), st.sampled_from(BACKENDS))
    def test_raw_features_bit_identical(self, case, backend):
        m, width, depths, chunk, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, width)) * rng.uniform(0.5, 100)
        if m:
            r_min = x.min(axis=0) - 0.1
            r_max = x.max(axis=0) + 0.1
        else:
            r_min = np.full(width, -1.0)
            r_max = np.full(width, 1.0)
        res = fused_one(
            x, None, r_min, r_max, depths, backend=backend, chunk_size=chunk
        )
        _assert_matches_reference(res, x, None, r_min, r_max, depths, width)

    @COMMON
    @given(projected_cases(), st.sampled_from(BACKENDS))
    def test_projected_matches_reference(self, case, backend):
        m, n_features, n_dims, depths, chunk, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n_features)) * rng.uniform(0.5, 100)
        matrix = rng.standard_normal((n_features, n_dims))
        projected = x @ matrix
        r_min = projected.min(axis=0) - 0.1
        r_max = projected.max(axis=0) + 0.1
        res = fused_one(
            x, matrix, r_min, r_max, depths, backend=backend, chunk_size=chunk
        )
        _assert_matches_reference(res, x, matrix, r_min, r_max, depths, n_dims)


class TestStreamingEquivalence:
    @COMMON
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 3),
        st.sampled_from([2, 13, 500]),
        st.sampled_from(BACKENDS),
    )
    def test_partial_fit_stream_matches_reference(
        self, seed, n_batches, batch_size, backend
    ):
        rng = np.random.default_rng(seed)
        kw = dict(
            n_projections=3, candidate_depths=(3, 5), seed=seed % 1000
        )
        ref = StreamingKeyBin2(**kw)
        fus = StreamingKeyBin2(backend=backend, **kw)
        for _ in range(n_batches):
            x = rng.standard_normal((batch_size, 8)) * 3
            reference_partial_fit(ref, x)
            fus.partial_fit(x)
        assert ref.n_seen_ == fus.n_seen_
        for sr, sf in zip(ref._states, fus._states):
            assert np.array_equal(sr.hist, sf.hist)
            assert np.array_equal(sr.hist_delta, sf.hist_delta)
            # The shallower depths the tail derives equal the oracle's own
            # per-depth counts.
            derived = prefix_histograms(sf.hist, sf.depths)
            for d in sr.depths:
                assert np.array_equal(derived[d], sr.reference_hist[d])
            kr, cr = sr.keys.to_arrays()
            kf, cf = sf.keys.to_arrays()
            assert np.array_equal(kr, kf)
            assert np.array_equal(cr, cf)

    @COMMON
    @given(st.integers(0, 2**31 - 1), st.sampled_from(BACKENDS))
    def test_single_point_stream_matches_reference(self, seed, backend):
        # M = 1 streams take the unconditional (projection-free) guarantee:
        # with a projection, a single point's derived range centers on the
        # point itself — a systematic bin-boundary knife edge where GEMM
        # ulp differences are visible (see module docstring).
        rng = np.random.default_rng(seed)
        kw = dict(
            n_projections=2, candidate_depths=(2, 4), projection="none",
            seed=seed % 1000,
        )
        ref = StreamingKeyBin2(**kw)
        fus = StreamingKeyBin2(backend=backend, **kw)
        for _ in range(4):
            x = rng.standard_normal((1, 5))
            reference_partial_fit(ref, x)
            fus.partial_fit(x)
        for sr, sf in zip(ref._states, fus._states):
            assert np.array_equal(sr.hist, sf.hist)
            derived = prefix_histograms(sf.hist, sf.depths)
            for d in sr.depths:
                assert np.array_equal(derived[d], sr.reference_hist[d])
            kr, cr = sr.keys.to_arrays()
            kf, cf = sf.keys.to_arrays()
            assert np.array_equal(kr, kf) and np.array_equal(cr, cf)

    @COMMON
    @given(st.integers(0, 2**31 - 1), st.sampled_from(BACKENDS))
    def test_refresh_after_fused_stream_matches_reference(self, seed, backend):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((3, 6)) * 6
        x = np.repeat(centers, 60, axis=0) + 0.1 * rng.standard_normal((180, 6))
        kw = dict(n_projections=2, candidate_depths=(3, 4), seed=7)
        ref = reference_partial_fit(StreamingKeyBin2(**kw), x)
        fus = StreamingKeyBin2(backend=backend, **kw).partial_fit(x)
        ref.refresh()
        fus.refresh()
        assert np.array_equal(ref.predict(x), fus.predict(x))

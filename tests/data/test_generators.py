"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.data.correlated import correlated_clusters
from repro.data.gaussians import gaussian_mixture
from repro.data.streams import DriftingStream, distributed_partitions
from repro.errors import ValidationError
from tests.data.shapes import box_clusters, moons, ring_clusters
from tests.data.streams import (
    BatchStream,
    MeanShiftStream,
    RangeGrowthStream,
    RegimeChangeStream,
)


class TestGaussianMixture:
    def test_shape_and_labels(self):
        x, y = gaussian_mixture(500, 8, n_clusters=3, seed=0)
        assert x.shape == (500, 8)
        assert y.shape == (500,)
        assert set(np.unique(y)) == {0, 1, 2}

    def test_every_cluster_populated(self):
        _, y = gaussian_mixture(100, 4, n_clusters=10, seed=1)
        assert np.unique(y).size == 10

    def test_reproducible(self):
        a = gaussian_mixture(100, 4, seed=5)
        b = gaussian_mixture(100, 4, seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_separation_respected(self):
        x, y = gaussian_mixture(2000, 6, n_clusters=4, separation=8.0, seed=2)
        centers = np.stack([x[y == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                # sampled centres jitter around the requested separation
                assert np.linalg.norm(centers[i] - centers[j]) > 6.0

    def test_diagonal_covariance(self):
        x, y = gaussian_mixture(20_000, 3, n_clusters=1, seed=3)
        cov = np.cov(x.T)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 0.05

    def test_weight_concentration_balances(self):
        _, y_bal = gaussian_mixture(4000, 2, n_clusters=4, seed=4,
                                    weight_concentration=1000.0)
        counts = np.bincount(y_bal)
        assert counts.max() / counts.min() < 1.3

    def test_invalid(self):
        with pytest.raises(ValidationError):
            gaussian_mixture(3, 2, n_clusters=4)


class TestShapes:
    def test_box_clusters(self):
        x, y = box_clusters(400, n_dims=3, n_clusters=4, seed=0)
        assert x.shape == (400, 3)
        assert np.unique(y).size == 4

    def test_boxes_bounded(self):
        x, y = box_clusters(400, n_dims=2, n_clusters=2, side=4.0,
                            spacing=10.0, seed=0)
        for k in range(2):
            pts = x[y == k]
            assert np.ptp(pts[:, 0]) <= 4.0 + 1e-9

    def test_box_invalid_geometry(self):
        with pytest.raises(ValidationError):
            box_clusters(10, side=5.0, spacing=4.0)

    def test_rings_radii(self):
        x, y = ring_clusters(600, n_rings=2, radius_step=5.0, seed=0)
        r = np.linalg.norm(x, axis=1)
        assert abs(np.median(r[y == 0]) - 5.0) < 0.5
        assert abs(np.median(r[y == 1]) - 10.0) < 0.5

    def test_moons_two_classes(self):
        x, y = moons(500, seed=0)
        assert x.shape == (500, 2)
        assert set(np.unique(y)) == {0, 1}

    def test_moons_min_points(self):
        with pytest.raises(ValidationError):
            moons(1)


class TestCorrelated:
    def test_projection_overlap_property(self):
        """Both original axes must show heavy class overlap while the 2-D
        clusters are separated — the Figure-1 construction."""
        x, y = correlated_clusters(3000, seed=0)
        for dim in range(2):
            lo = np.percentile(x[y == 0, dim], 10)
            hi = np.percentile(x[y == 0, dim], 90)
            other = x[y == 1, dim]
            frac_inside = np.mean((other > lo) & (other < hi))
            assert frac_inside > 0.5  # heavy 1-D overlap
        # Yet the clusters are separated along the minor axis direction.
        minor = np.zeros(2)
        minor[0], minor[1] = 1.0, -1.0
        minor /= np.sqrt(2)
        proj = x @ minor
        gap = abs(np.median(proj[y == 0]) - np.median(proj[y == 1]))
        assert gap > 2.0

    def test_n_dims_above_two(self):
        x, y = correlated_clusters(500, n_dims=5, seed=1)
        assert x.shape == (500, 5)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            correlated_clusters(100, n_dims=1)
        with pytest.raises(ValidationError):
            correlated_clusters(100, n_clusters=1)


class TestStreams:
    def test_batchstream_covers_data(self, rng):
        x = rng.random((95, 3))
        y = rng.integers(0, 2, 95)
        batches = list(BatchStream(x, y, 20))
        assert len(batches) == 5
        assert sum(b[0].shape[0] for b in batches) == 95
        reassembled = np.concatenate([b[0] for b in batches])
        assert np.array_equal(reassembled, x)

    def test_batchstream_replayable(self, rng):
        stream = BatchStream(rng.random((10, 2)), None, 3)
        assert len(list(stream)) == len(list(stream))

    def test_batchstream_length_mismatch(self, rng):
        with pytest.raises(ValidationError):
            BatchStream(rng.random((10, 2)), np.zeros(9), 3)

    def test_drifting_stream_batches(self):
        stream = DriftingStream(n_batches=4, batch_size=50, n_dims=3, seed=0)
        batches = list(stream)
        assert len(batches) == 4
        for bx, by in batches:
            assert bx.shape == (50, 3)
            assert by.shape == (50,)

    def test_drift_moves_centers(self):
        big_drift = DriftingStream(
            n_batches=10, batch_size=200, n_dims=2, n_clusters=1, drift=0.5, seed=1
        )
        batches = list(big_drift)
        first = batches[0][0].mean(axis=0)
        last = batches[-1][0].mean(axis=0)
        assert np.linalg.norm(first - last) > 1.0


class TestDistributedPartitions:
    def test_covers_all_rows(self, rng):
        x = rng.random((100, 2))
        y = rng.integers(0, 3, 100)
        parts = distributed_partitions(x, y, 4, seed=0)
        assert sum(p[0].shape[0] for p in parts) == 100

    def test_skew_one_sorts_by_label(self, rng):
        x = rng.random((300, 2))
        y = np.repeat([0, 1, 2], 100)
        parts = distributed_partitions(x, y, 3, skew=1.0, seed=0)
        # Each rank sees (almost) one label.
        for _, yi in parts:
            assert np.unique(yi).size == 1

    def test_skew_zero_mixes(self, rng):
        x = rng.random((300, 2))
        y = np.repeat([0, 1, 2], 100)
        parts = distributed_partitions(x, y, 3, skew=0.0, seed=0)
        for _, yi in parts:
            assert np.unique(yi).size == 3

    def test_none_labels_ok(self, rng):
        parts = distributed_partitions(rng.random((50, 2)), None, 2, seed=0)
        assert parts[0][1] is None

    def test_invalid_skew(self, rng):
        with pytest.raises(ValidationError):
            distributed_partitions(rng.random((10, 2)), None, 2, skew=2.0)


class TestRangeGrowthStream:
    def test_shapes_and_determinism(self):
        a = [(x.copy(), y.copy()) for x, y in RangeGrowthStream(
            n_batches=4, batch_size=50, n_dims=3, seed=7)]
        b = list(RangeGrowthStream(n_batches=4, batch_size=50, n_dims=3,
                                   seed=7))
        assert len(a) == 4
        for (xa, ya), (xb, yb) in zip(a, b):
            assert xa.shape == (50, 3) and ya.shape == (50,)
            assert ya.dtype == np.int64
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_spread_grows_geometrically(self):
        spreads = [float(np.abs(x).max()) for x, _ in RangeGrowthStream(
            n_batches=8, batch_size=400, n_dims=4, growth=2.0, seed=0)]
        # Late batches dwarf early ones: any fixed range is exceeded.
        assert spreads[-1] > 20 * spreads[0]

    def test_growth_one_is_stationary(self):
        spreads = [float(np.abs(x).max()) for x, _ in RangeGrowthStream(
            n_batches=6, batch_size=400, n_dims=4, growth=1.0, seed=0)]
        assert max(spreads) < 3 * min(spreads)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RangeGrowthStream(n_batches=0, batch_size=10, n_dims=2)
        with pytest.raises(ValidationError):
            RangeGrowthStream(n_batches=2, batch_size=10, n_dims=2,
                              growth=0.0)


class TestMeanShiftStream:
    def test_mean_walks_linearly(self):
        means = [x.mean(axis=0) for x, _ in MeanShiftStream(
            n_batches=10, batch_size=500, n_dims=4, shift=2.0, seed=1)]
        steps = [float(np.linalg.norm(means[i + 1] - means[i]))
                 for i in range(len(means) - 1)]
        # Every step moves by ~shift along one fixed unit direction
        # (batch means also jitter with cluster-membership sampling, a
        # noise term of order separation/sqrt(batch_size) per step).
        for step in steps:
            assert 0.5 < step < 4.0
        total = float(np.linalg.norm(means[-1] - means[0]))
        assert total == pytest.approx(2.0 * 9, rel=0.15)

    def test_geometry_is_stationary(self):
        # Centered batches look alike: only the mean moves.
        batches = [x for x, _ in MeanShiftStream(
            n_batches=6, batch_size=2000, n_dims=3, shift=3.0, seed=2)]
        stds = [np.std(x - x.mean(axis=0)) for x in batches]
        assert max(stds) < 1.2 * min(stds)

    def test_deterministic(self):
        a = list(MeanShiftStream(n_batches=3, batch_size=20, n_dims=2,
                                 seed=9))
        b = list(MeanShiftStream(n_batches=3, batch_size=20, n_dims=2,
                                 seed=9))
        for (xa, _), (xb, _) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)


class TestRegimeChangeStream:
    def test_labels_disjoint_across_regimes(self):
        stream = list(RegimeChangeStream(n_batches=6, batch_size=100,
                                         n_dims=3, change_at=3,
                                         n_clusters=4, seed=0))
        before = np.unique(np.concatenate([y for _, y in stream[:3]]))
        after = np.unique(np.concatenate([y for _, y in stream[3:]]))
        assert before.max() < 4 <= after.min()
        assert not set(before) & set(after)

    def test_n_clusters_after_controls_second_regime(self):
        stream = list(RegimeChangeStream(n_batches=4, batch_size=400,
                                         n_dims=3, change_at=2,
                                         n_clusters=2, n_clusters_after=5,
                                         seed=1))
        after = np.unique(np.concatenate([y for _, y in stream[2:]]))
        assert set(after) == set(range(2, 7))

    def test_distribution_actually_moves(self):
        stream = list(RegimeChangeStream(n_batches=6, batch_size=500,
                                         n_dims=4, change_at=3, seed=2))
        mean_before = np.concatenate([x for x, _ in stream[:3]]).mean(axis=0)
        mean_after = np.concatenate([x for x, _ in stream[3:]]).mean(axis=0)
        assert np.linalg.norm(mean_after - mean_before) > 2.0

    def test_change_at_must_be_interior(self):
        for bad in (0, 5, -1):
            with pytest.raises(ValidationError):
                RegimeChangeStream(n_batches=5, batch_size=10, n_dims=2,
                                   change_at=bad)

    def test_deterministic(self):
        a = list(RegimeChangeStream(n_batches=4, batch_size=30, n_dims=2,
                                    change_at=2, seed=4))
        b = list(RegimeChangeStream(n_batches=4, batch_size=30, n_dims=2,
                                    change_at=2, seed=4))
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

"""Tests for grid-indexed DBSCAN."""

import numpy as np
import pytest

from repro.baselines.dbscan import DBSCAN, NOISE, GridIndex
from repro.errors import ValidationError
from repro.metrics.external import adjusted_rand_index
from tests.data.shapes import moons, ring_clusters


class TestGridIndex:
    def test_neighbors_include_self(self, rng):
        x = rng.random((50, 2))
        idx = GridIndex(x, eps=0.2)
        for i in (0, 10, 49):
            assert i in idx.neighbors(i)

    def test_neighbors_match_brute_force(self, rng):
        x = rng.random((100, 2))
        eps = 0.15
        idx = GridIndex(x, eps)
        for i in range(0, 100, 17):
            fast = set(idx.neighbors(i).tolist())
            d2 = np.sum((x - x[i]) ** 2, axis=1)
            brute = set(np.flatnonzero(d2 <= eps * eps).tolist())
            assert fast == brute

    def test_high_dim_falls_back_to_brute(self, rng):
        x = rng.random((20, 12))
        idx = GridIndex(x, eps=0.5)
        assert idx.brute
        got = set(idx.neighbors(0).tolist())
        d2 = np.sum((x - x[0]) ** 2, axis=1)
        assert got == set(np.flatnonzero(d2 <= 0.25).tolist())

    def test_invalid_eps(self, rng):
        with pytest.raises(ValidationError):
            GridIndex(rng.random((5, 2)), eps=0.0)


class TestDBSCAN:
    def test_gaussian_blobs(self, tiny_gaussians):
        x, y = tiny_gaussians
        db = DBSCAN(eps=0.9, min_points=5).fit(x)
        assert db.n_clusters_ == 3
        assert adjusted_rand_index(y, db.labels_) > 0.9

    def test_nonconvex_moons(self):
        x, y = moons(1200, seed=0)
        db = DBSCAN(eps=0.12, min_points=5).fit(x)
        assert db.n_clusters_ == 2
        assert adjusted_rand_index(y, db.labels_) > 0.95

    def test_nonconvex_rings(self):
        x, y = ring_clusters(1200, seed=0)
        db = DBSCAN(eps=1.2, min_points=5).fit(x)
        assert adjusted_rand_index(y, db.labels_) > 0.95

    def test_outliers_marked_noise(self, rng):
        blob = rng.normal(0, 0.3, (200, 2))
        outliers = np.array([[50.0, 50.0], [-60.0, 40.0]])
        x = np.concatenate([blob, outliers])
        db = DBSCAN(eps=0.5, min_points=5).fit(x)
        assert db.labels_[-1] == NOISE
        assert db.labels_[-2] == NOISE

    def test_all_noise_when_sparse(self, rng):
        x = rng.random((50, 2)) * 1000
        db = DBSCAN(eps=0.1, min_points=3).fit(x)
        assert db.n_clusters_ == 0
        assert np.all(db.labels_ == NOISE)

    def test_single_dense_cluster(self, rng):
        x = rng.normal(0, 0.1, (100, 2))
        db = DBSCAN(eps=0.5, min_points=5).fit(x)
        assert db.n_clusters_ == 1
        assert np.all(db.labels_ == 0)

    def test_core_mask(self, rng):
        x = rng.normal(0, 0.1, (100, 2))
        db = DBSCAN(eps=0.5, min_points=5).fit(x)
        assert db.core_sample_mask_.all()

    def test_labels_deterministic(self, tiny_gaussians):
        x, _ = tiny_gaussians
        a = DBSCAN(eps=0.9, min_points=5).fit(x).labels_
        b = DBSCAN(eps=0.9, min_points=5).fit(x).labels_
        assert np.array_equal(a, b)

    def test_max_points_guard(self, rng):
        db = DBSCAN(eps=0.5, min_points=3, max_points=10)
        with pytest.raises(ValidationError, match="refusing"):
            db.fit(rng.random((11, 2)))

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            DBSCAN(eps=-1.0)
        with pytest.raises(ValidationError):
            DBSCAN(eps=1.0, min_points=0)

    def test_border_points_adopted(self):
        """A point within eps of a core point but itself non-core joins the
        cluster instead of being noise."""
        core_blob = np.zeros((10, 2))
        border = np.array([[0.9, 0.0]])
        x = np.concatenate([core_blob, border])
        db = DBSCAN(eps=1.0, min_points=5).fit(x)
        assert db.labels_[-1] == db.labels_[0]

"""Tests for X-means (BIC-driven k selection)."""

import numpy as np
import pytest

from repro.baselines import xmeans
from repro.baselines.xmeans import XMeans, bic_score
from repro.data.gaussians import gaussian_mixture
from repro.errors import ValidationError
from repro.metrics.external import adjusted_rand_index


class TestBicScore:
    def test_true_k_beats_k1_on_separated_blobs(self, tiny_gaussians):
        from repro.baselines.kmeans import KMeans

        x, _ = tiny_gaussians
        km1 = KMeans(1, seed=0).fit(x)
        km3 = KMeans(3, seed=0).fit(x)
        b1 = bic_score(x, km1.labels_, km1.cluster_centers_)
        b3 = bic_score(x, km3.labels_, km3.cluster_centers_)
        assert b3 > b1

    def test_overfit_penalized(self, rng):
        """On a single blob, k = 4 must not beat k = 1."""
        from repro.baselines.kmeans import KMeans

        x = rng.normal(0, 1, (400, 3))
        km1 = KMeans(1, seed=0).fit(x)
        km4 = KMeans(4, seed=0).fit(x)
        b1 = bic_score(x, km1.labels_, km1.cluster_centers_)
        b4 = bic_score(x, km4.labels_, km4.cluster_centers_)
        assert b1 > b4

    def test_degenerate_m_le_k(self):
        x = np.zeros((2, 2))
        assert bic_score(x, np.array([0, 1]), np.zeros((2, 2))) == -np.inf


class TestXMeans:
    def test_finds_true_k(self, small_gaussians):
        x, y = small_gaussians
        xm = XMeans(k_max=16, seed=0).fit(x)
        assert 3 <= xm.n_clusters_ <= 6
        assert adjusted_rand_index(y, xm.labels_) > 0.9

    def test_single_blob_stays_one(self, rng):
        x = rng.normal(0, 1, (500, 4))
        xm = XMeans(k_max=8, seed=0).fit(x)
        assert xm.n_clusters_ <= 2

    def test_k_max_respected(self, small_gaussians):
        x, _ = small_gaussians
        xm = XMeans(k_max=2, seed=0).fit(x)
        assert xm.n_clusters_ <= 2

    def test_k_min_respected(self, small_gaussians, monkeypatch):
        x, _ = small_gaussians
        monkeypatch.setattr(xmeans, "K_MIN", 3)
        xm = XMeans(k_max=16, seed=0).fit(x)
        assert xm.n_clusters_ >= 3

    def test_fit_predict(self, tiny_gaussians):
        x, _ = tiny_gaussians
        xm = XMeans(seed=0)
        labels = xm.fit_predict(x)
        assert labels.shape == (x.shape[0],)

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            XMeans(k_max=0)

"""Tests for distributed k-means."""

import numpy as np
import pytest

from repro.baselines.kmeans import KMeans
from repro.baselines import parallel_kmeans as pkm
from repro.baselines.parallel_kmeans import ParallelKMeans, parallel_kmeans_spmd
from repro.comm.serial import SerialComm
from repro.data.gaussians import gaussian_mixture
from repro.errors import ValidationError
from repro.metrics.external import adjusted_rand_index


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(n_points=1600, n_dims=8, n_clusters=4, seed=21)


class TestParallelKMeans:
    def test_accuracy_on_shards(self, data):
        """A single kmeans++-seeded run can land in a local optimum (it is
        one init, seeded from rank 0's shard only), but the best of a few
        seeds must nail the separated mixture."""
        x, y = data
        shards = [x[i::4] for i in range(4)]
        ys = np.concatenate([y[i::4] for i in range(4)])
        best = max(
            adjusted_rand_index(
                ys,
                ParallelKMeans(4, seed=s, init="kmeans++")
                .fit(shards)
                .concatenated_labels(),
            )
            for s in range(3)
        )
        assert best > 0.95

    def test_single_rank_equals_sequential_kmeans(self, data):
        """With one rank and identical seeding, parallel k-means IS
        sequential k-means."""
        x, y = data
        comm = SerialComm()
        labels, centers, inertia, n_iter = parallel_kmeans_spmd(
            comm, x, 4, seed=7, init="kmeans++"
        )
        km = KMeans(4, n_init=1, seed=7).fit(x)
        assert adjusted_rand_index(km.labels_, labels) > 0.99

    def test_sharding_invariance(self, data):
        """The converged inertia must not depend on how data is sharded
        (same global data, same seeding rank 0 holds the same prefix)."""
        x, _ = data
        shards_a = [x[:400], x[400:800], x[800:]]
        shards_b = [x[:400], x[400:1200], x[1200:]]
        a = ParallelKMeans(4, seed=0, init="first").fit(shards_a)
        b = ParallelKMeans(4, seed=0, init="first").fit(shards_b)
        assert a.inertia_ == pytest.approx(b.inertia_, rel=1e-6)

    def test_first_init_weaker_or_equal(self, data):
        """Liao-style first-k seeding must never beat k-means++ on average
        (the degradation the paper's tables show)."""
        x, y = data
        shards = [x[i::2] for i in range(2)]
        ys = np.concatenate([y[i::2] for i in range(2)])
        ari_first = []
        ari_pp = []
        for s in range(5):
            xf, yf = gaussian_mixture(
                n_points=800, n_dims=16, n_clusters=4, separation=3.0, seed=s
            )
            sh = [xf[::2], xf[1::2]]
            yy = np.concatenate([yf[::2], yf[1::2]])
            ari_first.append(adjusted_rand_index(
                yy, ParallelKMeans(4, seed=s, init="first").fit(sh).concatenated_labels()
            ))
            ari_pp.append(adjusted_rand_index(
                yy, ParallelKMeans(4, seed=s, init="kmeans++").fit(sh).concatenated_labels()
            ))
        assert np.mean(ari_first) <= np.mean(ari_pp) + 0.05

    def test_traffic_scales_with_dims(self, monkeypatch):
        """Per-iteration communication is O(k·N) — the scaling weakness
        vs KeyBin2."""
        monkeypatch.setattr(pkm, "MAX_ITER", 5)
        monkeypatch.setattr(pkm, "TOL", 0.0)
        traffics = {}
        for d in (8, 64):
            x, _ = gaussian_mixture(n_points=400, n_dims=d, n_clusters=2, seed=0)
            shards = [x[::2], x[1::2]]
            pk = ParallelKMeans(2, seed=0).fit(shards)
            traffics[d] = pk.traffic_[1]["bytes_sent"]
        assert traffics[64] > traffics[8] * 4

    def test_process_executor(self, data, monkeypatch):
        x, y = data
        shards = [x[::2], x[1::2]]
        monkeypatch.setattr(pkm, "EXECUTOR", "process")
        pk = ParallelKMeans(4, seed=0).fit(shards)
        assert pk.cluster_centers_.shape == (4, 8)

    def test_invalid_init(self):
        comm = SerialComm()
        with pytest.raises(ValidationError):
            parallel_kmeans_spmd(comm, np.zeros((10, 2)), 2, init="random")

    def test_too_few_seed_points(self):
        comm = SerialComm()
        with pytest.raises(ValidationError):
            parallel_kmeans_spmd(comm, np.zeros((2, 2)), 5)

    def test_empty_shards_rejected(self):
        with pytest.raises(ValidationError):
            ParallelKMeans(2).fit([])

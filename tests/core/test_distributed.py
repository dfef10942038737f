"""Tests for the SPMD KeyBin2 driver."""

import re

import numpy as np
import pytest

from repro.core import distributed
from repro.core.distributed import fit_distributed, keybin2_spmd
from repro.core.estimator import KeyBin2
from repro.comm.spmd import run_spmd
from repro.data.gaussians import gaussian_mixture
from repro.data.streams import distributed_partitions
from repro.errors import RankFailedError, ValidationError
from repro.metrics.external import purity
from repro.metrics.pairs import pair_precision_recall_f1


@pytest.fixture(scope="module")
def sharded():
    x, y = gaussian_mixture(n_points=2400, n_dims=16, n_clusters=4, seed=11)
    shards = [x[i::4] for i in range(4)]
    ys = [y[i::4] for i in range(4)]
    return shards, ys, x, y


class TestFitDistributed:
    def test_accuracy(self, sharded):
        shards, ys, _, _ = sharded
        res = fit_distributed(shards, executor="thread", seed=0)
        all_y = np.concatenate(ys)
        assert purity(all_y, res.concatenated_labels()) > 0.95
        assert res.n_clusters >= 4

    def test_model_identical_across_ranks_predicts_shards(self, sharded):
        shards, ys, _, _ = sharded
        res = fit_distributed(shards, executor="thread", seed=0)
        # The broadcast model must reproduce each rank's local labels.
        for shard, labels in zip(shards, res.labels):
            assert np.array_equal(res.model.predict(shard), labels)

    def test_single_rank_equals_serial_pipeline(self, sharded):
        _, _, x, y = sharded
        res = fit_distributed([x], executor="thread", seed=0)
        assert purity(y, res.labels[0]) > 0.95

    @pytest.mark.parametrize("consolidation", ["master", "allreduce", "ring"])
    def test_consolidation_modes_agree(self, sharded, consolidation):
        shards, ys, _, _ = sharded
        res = fit_distributed(
            shards, executor="thread", seed=0, consolidation=consolidation,
            n_projections=3,
        )
        all_y = np.concatenate(ys)
        assert purity(all_y, res.concatenated_labels()) > 0.9

    def test_master_and_allreduce_identical_labels(self, sharded):
        shards, _, _, _ = sharded
        a = fit_distributed(shards, executor="thread", seed=0,
                            consolidation="master", n_projections=3)
        b = fit_distributed(shards, executor="thread", seed=0,
                            consolidation="allreduce", n_projections=3)
        assert np.array_equal(a.concatenated_labels(), b.concatenated_labels())

    def test_process_executor(self, sharded):
        shards, ys, _, _ = sharded
        res = fit_distributed(shards[:2], executor="process", seed=0,
                              n_projections=2)
        assert res.n_clusters >= 2

    def test_skewed_shards_still_recovered(self):
        """Each rank holding a biased subset of clusters must not break the
        global clustering (histogram merging handles it)."""
        x, y = gaussian_mixture(n_points=2400, n_dims=16, n_clusters=4, seed=3)
        parts = distributed_partitions(x, y, 4, skew=1.0, seed=3)
        shards = [p[0] for p in parts]
        all_y = np.concatenate([p[1] for p in parts])
        res = fit_distributed(shards, executor="thread", seed=0)
        assert purity(all_y, res.concatenated_labels()) > 0.9

    def test_distributed_equals_single_rank_accuracy(self, sharded):
        shards, ys, x, y = sharded
        dist = fit_distributed(shards, executor="thread", seed=0)
        single = fit_distributed([x], executor="thread", seed=0)
        _, _, f1_dist = pair_precision_recall_f1(
            np.concatenate(ys), dist.concatenated_labels()
        )
        _, _, f1_single = pair_precision_recall_f1(y, single.labels[0])
        assert abs(f1_dist - f1_single) < 0.1

    def test_traffic_recorded(self, sharded):
        shards, _, _, _ = sharded
        res = fit_distributed(shards, executor="thread", seed=0)
        assert len(res.traffic) == 4
        for t in res.traffic:
            assert t["bytes_sent"] > 0

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValidationError):
            fit_distributed([])

    def test_mismatched_features_rejected(self, monkeypatch):
        monkeypatch.setattr(distributed, "FIT_TIMEOUT_S", 10.0)
        a = np.zeros((10, 3))
        b = np.zeros((10, 4))
        with pytest.raises(Exception):
            fit_distributed([a, b], executor="thread")


class TestKeybin2SpmdDirect:
    def test_uneven_shard_sizes(self):
        x, y = gaussian_mixture(n_points=1000, n_dims=8, n_clusters=3, seed=5)
        shards = [x[:100], x[100:400], x[400:]]

        def prog(comm):
            labels, model = keybin2_spmd(comm, shards[comm.rank], seed=0,
                                         n_projections=2)
            return labels.shape[0], model.n_clusters

        results = run_spmd(prog, 3, executor="thread", timeout=120)
        assert [r[0] for r in results] == [100, 300, 600]
        ks = {r[1] for r in results}
        assert len(ks) == 1  # identical model everywhere

    def test_invalid_consolidation(self):
        def prog(comm):
            return keybin2_spmd(comm, np.zeros((5, 2)), consolidation="carrier-pigeon")

        with pytest.raises(Exception):
            run_spmd(prog, 2, executor="thread", timeout=10)


class TestEqualsBatchFit:
    """The SPMD model is the batch model of the pooled data: the merged raw
    range is padded once, exactly as a single process pads its own."""

    @pytest.fixture(scope="class")
    def data(self):
        x, _ = gaussian_mixture(n_points=2400, n_dims=16, n_clusters=4, seed=3)
        return x

    @pytest.mark.parametrize("cut_at", [(700,), (300, 1100)])
    def test_uneven_contiguous_shards_give_batch_model(self, data, cut_at):
        batch = KeyBin2(seed=0, n_projections=3).fit(data)
        res = fit_distributed(np.split(data, cut_at), executor="thread",
                              seed=0, n_projections=3)
        assert res.model.fingerprint() == batch.model_.fingerprint()
        assert np.array_equal(res.concatenated_labels(), batch.labels_)

    def test_auto_depths_resolved_from_global_count(self, data):
        batch = KeyBin2(seed=0, n_projections=2, candidate_depths="auto").fit(data)
        res = fit_distributed(np.split(data, [1000]), executor="thread", seed=0,
                              n_projections=2, candidate_depths="auto")
        assert res.model.depth in batch._resolved_depths
        assert res.model.fingerprint() == batch.model_.fingerprint()

    @pytest.mark.parametrize("bad", [
        {"projection": "fourier"},
        {"smoother": "spline"},
        {"n_projections": 0},
        {"candidate_depths": "deep"},
        {"candidate_depths": ()},
    ])
    def test_rejects_what_batch_rejects(self, bad):
        with pytest.raises(ValidationError) as batch_err:
            KeyBin2(**bad)

        def prog(comm):
            return keybin2_spmd(comm, np.zeros((5, 2)), **bad)

        with pytest.raises(RankFailedError, match=re.escape(str(batch_err.value))):
            run_spmd(prog, 1, executor="thread", timeout=10)

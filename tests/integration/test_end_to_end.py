"""Cross-module integration tests."""

import numpy as np
import pytest

from repro import KeyBin1, KeyBin2, StreamingKeyBin2, fit_distributed
from repro.data.correlated import correlated_clusters
from repro.data.gaussians import gaussian_mixture
from repro.data.streams import distributed_partitions
from repro.metrics.pairs import pair_precision_recall_f1
from tests.data.streams import BatchStream
from repro.metrics.external import purity


class TestPaperHeadlineClaims:
    """Each test pins one qualitative claim from the paper."""

    def test_keybin2_beats_keybin1_on_overlapping_projections(self):
        """§1 'projection overlapping' limitation + §3.1 fix."""
        x, y = correlated_clusters(4000, seed=0)
        kb1 = KeyBin1(depth=6).fit(x)
        # In 2-D the decorrelating direction cone is narrow; a wide
        # bootstrap makes hitting it near-certain.
        kb2 = KeyBin2(n_projections=24, seed=0).fit(x)
        _, _, f1_1 = pair_precision_recall_f1(y, kb1.labels_)
        _, _, f1_2 = pair_precision_recall_f1(y, kb2.labels_)
        assert f1_2 > f1_1 + 0.1

    def test_nonparametric_finds_at_least_true_k(self):
        """§4: 'KeyBin2 finds a larger number of clusters than ground
        truth' while precision stays near 1."""
        x, y = gaussian_mixture(5000, 32, n_clusters=4, separation=3.0, seed=1)
        kb = KeyBin2(seed=1).fit(x)
        prec, rec, f1 = pair_precision_recall_f1(y, kb.labels_)
        assert kb.n_clusters_ >= 4
        assert prec > 0.9

    def test_high_dimensional_accuracy_holds(self):
        """§4 Table 1: accuracy maintained as dims grow to the hundreds."""
        x, y = gaussian_mixture(3000, 320, n_clusters=4, seed=2)
        kb = KeyBin2(seed=2).fit(x)
        _, _, f1 = pair_precision_recall_f1(y, kb.labels_)
        assert f1 > 0.85

    def test_histograms_are_only_data_dependent_traffic(self):
        """§3.4: communication is O(histograms), independent of M."""
        results = {}
        for m_per_rank in (300, 1200):
            x, y = gaussian_mixture(m_per_rank * 2, 32, n_clusters=4, seed=3)
            shards = [x[::2], x[1::2]]
            res = fit_distributed(shards, executor="thread", seed=3,
                                  n_projections=2)
            results[m_per_rank] = res.traffic[1]["bytes_sent"]
        # 4× the data must NOT mean 4× the traffic (allow small wiggle from
        # cell-table size differences).
        assert results[1200] < results[300] * 1.5

    def test_streaming_matches_batch_quality(self):
        """§3: the algorithm 'extrapolates for data streams'."""
        x, y = gaussian_mixture(6000, 24, n_clusters=4, seed=4)
        batch = KeyBin2(seed=4, n_projections=4).fit(x)
        stream = StreamingKeyBin2(seed=4, n_projections=4)
        for bx, _ in BatchStream(x, y, 500):
            stream.partial_fit(bx)
        stream.refresh()
        p_batch = purity(y, batch.labels_)
        p_stream = purity(y, stream.predict(x))
        assert p_stream > p_batch - 0.1

    def test_distributed_equals_local_quality_with_skew(self):
        """§1: learning from distributed data without moving it, even when
        sites hold biased shards."""
        x, y = gaussian_mixture(4000, 24, n_clusters=4, seed=5)
        parts = distributed_partitions(x, y, 4, skew=1.0, seed=5)
        shards = [p[0] for p in parts]
        ys = np.concatenate([p[1] for p in parts])
        dist = fit_distributed(shards, executor="thread", seed=5)
        local = KeyBin2(seed=5).fit(x)
        _, _, f1_dist = pair_precision_recall_f1(ys, dist.concatenated_labels())
        _, _, f1_local = pair_precision_recall_f1(y, local.labels_)
        assert f1_dist > f1_local - 0.1

    def test_model_portable_across_processes(self):
        """A model fitted on one site labels data on another (broadcast
        scenario); serialization must round-trip through JSON."""
        import json

        from repro.core.model import KeyBin2Model

        x, y = gaussian_mixture(2000, 16, n_clusters=3, seed=6)
        kb = KeyBin2(seed=6).fit(x[:1000])
        wire = json.dumps(kb.model_.to_dict())
        remote_model = KeyBin2Model.from_dict(json.loads(wire))
        remote_labels = remote_model.predict(x[1000:])
        assert purity(y[1000:], remote_labels) > 0.85


class TestExecutorAgreement:
    def test_thread_process_identical_results(self):
        x, y = gaussian_mixture(1200, 16, n_clusters=3, seed=7)
        shards = [x[::3], x[1::3], x[2::3]]
        a = fit_distributed(shards, executor="thread", seed=7, n_projections=2)
        b = fit_distributed(shards, executor="process", seed=7, n_projections=2)
        assert np.array_equal(a.concatenated_labels(), b.concatenated_labels())
        assert a.n_clusters == b.n_clusters

    def test_rank_count_does_not_change_model(self):
        """Same global data split 2 vs 4 ways must give the same cuts (the
        consolidated histograms are identical)."""
        x, y = gaussian_mixture(2000, 16, n_clusters=4, seed=8)
        a = fit_distributed([x[:1000], x[1000:]], executor="thread", seed=8,
                            n_projections=2)
        b = fit_distributed(
            [x[:500], x[500:1000], x[1000:1500], x[1500:]],
            executor="thread", seed=8, n_projections=2,
        )
        assert a.n_clusters == b.n_clusters
        assert np.array_equal(a.concatenated_labels(), b.concatenated_labels())


class TestProteinsEndToEnd:
    def test_full_case_study_small(self):
        from repro.insitu.pipeline import InSituPipeline
        from repro.proteins.model_library import model_library

        spec = model_library(scale=0.02)[4]
        traj = spec.simulate()
        res = InSituPipeline(seed=0).run(traj)
        assert res.n_clusters >= 1
        assert len(res.fingerprints) == traj.n_frames

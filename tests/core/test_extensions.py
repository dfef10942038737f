"""Tests for the optional/extension features: the KDE partitioner
alternative (§3.2) and automatic depth selection."""

import numpy as np
import pytest

from repro.core import KeyBin2
from repro.core.partitioning import find_cuts, kde_density
from repro.errors import ValidationError
from repro.metrics.pairs import pair_precision_recall_f1


class TestKDEPartitioner:
    def _bimodal(self, rng):
        vals = np.concatenate([rng.normal(16, 3, 1500), rng.normal(48, 3, 1500)])
        return np.bincount(np.clip(vals.astype(int), 0, 63), minlength=64).astype(float)

    def test_kde_density_mass_preserved(self, rng):
        counts = self._bimodal(rng)
        dens = kde_density(counts)
        assert dens.sum() == pytest.approx(counts.sum(), rel=1e-6)

    def test_kde_density_smooth(self, rng):
        counts = self._bimodal(rng)
        dens = kde_density(counts)
        # Smoother = smaller second differences than the raw counts.
        assert np.abs(np.diff(dens, 2)).mean() < np.abs(np.diff(counts, 2)).mean()

    def test_kde_cuts_match_ma_cuts_on_clean_data(self, rng):
        counts = self._bimodal(rng)
        ma = find_cuts(counts, smoother="ma")
        kde = find_cuts(counts, smoother="kde")
        assert ma.size == kde.size == 1
        assert abs(int(ma[0]) - int(kde[0])) <= 6

    def test_kde_unimodal_no_cut(self, rng):
        vals = rng.normal(32, 5, 3000)
        counts = np.bincount(np.clip(vals.astype(int), 0, 63), minlength=64).astype(float)
        assert find_cuts(counts, smoother="kde").size == 0

    def test_kde_empty_histogram(self):
        assert kde_density(np.zeros(16)).sum() == 0.0

    def test_estimator_accepts_kde(self, small_gaussians):
        x, y = small_gaussians
        kb = KeyBin2(seed=0, smoother="kde", n_projections=3).fit(x)
        _, _, f1 = pair_precision_recall_f1(y, kb.labels_)
        assert f1 > 0.85

    def test_invalid_smoother(self):
        with pytest.raises(ValidationError):
            KeyBin2(smoother="wavelet")
        with pytest.raises(ValidationError):
            find_cuts(np.ones(8), smoother="loess")


class TestAutoDepths:
    def test_resolution_scales_with_m(self):
        from repro.core.estimator import resolve_depths

        small = resolve_depths("auto", 1_000)
        paper = resolve_depths("auto", 1_280_000)
        assert small[-1] <= paper[-1]
        assert paper == (6, 7, 8, 9)  # B = log2²(1.28M) ≈ 412 → depth 9

    def test_sequences_pass_through(self):
        from repro.core.estimator import resolve_depths

        assert resolve_depths((3, 5), 10_000) == (3, 5)

    def test_auto_estimator_works(self, small_gaussians):
        from repro.metrics.pairs import pair_precision_recall_f1

        x, y = small_gaussians
        kb = KeyBin2(seed=0, candidate_depths="auto").fit(x)
        _, _, f1 = pair_precision_recall_f1(y, kb.labels_)
        assert f1 > 0.9
        assert kb.model_.depth in kb._resolved_depths

    def test_invalid_string(self):
        with pytest.raises(ValidationError):
            KeyBin2(candidate_depths="deep")

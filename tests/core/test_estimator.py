"""Tests for the KeyBin2 estimator."""

import numpy as np
import pytest

from repro.core import KeyBin2
from repro.data.correlated import correlated_clusters
from repro.data.gaussians import gaussian_mixture
from repro.errors import NotFittedError, ValidationError
from repro.metrics.external import purity
from repro.metrics.pairs import pair_precision_recall_f1


class TestFitBasics:
    def test_finds_at_least_true_clusters(self, small_gaussians):
        x, y = small_gaussians
        kb = KeyBin2(seed=0).fit(x)
        assert kb.n_clusters_ >= 4

    def test_high_accuracy_on_separated_data(self, small_gaussians):
        x, y = small_gaussians
        kb = KeyBin2(seed=0).fit(x)
        prec, rec, f1 = pair_precision_recall_f1(y, kb.labels_)
        assert prec > 0.95
        assert f1 > 0.9

    def test_fit_predict_equals_labels(self, small_gaussians):
        x, _ = small_gaussians
        kb = KeyBin2(seed=1)
        labels = kb.fit_predict(x)
        assert np.array_equal(labels, kb.labels_)
        assert np.array_equal(kb.predict(x), labels)

    def test_reproducible_with_seed(self, small_gaussians):
        x, _ = small_gaussians
        a = KeyBin2(seed=9).fit_predict(x)
        b = KeyBin2(seed=9).fit_predict(x)
        assert np.array_equal(a, b)

    def test_trials_recorded(self, small_gaussians):
        x, _ = small_gaussians
        kb = KeyBin2(n_projections=5, seed=0).fit(x)
        assert len(kb.trials_) == 5
        assert kb.score_ == max(
            t.score for t in kb.trials_ if t.n_clusters >= 2
        )

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KeyBin2().predict(np.zeros((2, 2)))


class TestProjectionHandling:
    def test_separates_correlated_clusters(self):
        """The headline KeyBin2 capability (Fig. 1)."""
        x, y = correlated_clusters(3000, seed=1)
        kb = KeyBin2(n_projections=10, seed=1).fit(x)
        assert kb.n_clusters_ >= 2
        assert purity(y, kb.labels_) > 0.85

    def test_projection_none_keeps_original_space(self, tiny_gaussians):
        x, y = tiny_gaussians
        kb = KeyBin2(projection="none", seed=0).fit(x)
        assert kb.model_.projection is None
        assert purity(y, kb.labels_) > 0.9

    @pytest.mark.parametrize("kind", ["gaussian", "sparse", "orthonormal"])
    def test_all_projection_kinds_work(self, small_gaussians, kind):
        x, y = small_gaussians
        kb = KeyBin2(projection=kind, n_projections=4, seed=2).fit(x)
        assert purity(y, kb.labels_) > 0.8

    def test_explicit_n_components(self, small_gaussians):
        x, _ = small_gaussians
        kb = KeyBin2(n_components=3, n_projections=3, seed=0).fit(x)
        assert kb.model_.n_projected_dims == 3

    def test_n_components_capped_at_features(self, tiny_gaussians):
        x, _ = tiny_gaussians
        kb = KeyBin2(n_components=50, n_projections=2, seed=0).fit(x)
        assert kb.model_.n_projected_dims <= x.shape[1]


class TestParameters:
    def test_invalid_projection_kind(self):
        with pytest.raises(ValidationError):
            KeyBin2(projection="pca")

    def test_invalid_n_projections(self):
        with pytest.raises(ValidationError):
            KeyBin2(n_projections=0)

    def test_empty_depths(self):
        with pytest.raises(ValidationError):
            KeyBin2(candidate_depths=())

    def test_collapse_disabled_keeps_all_dims(self, small_gaussians):
        x, _ = small_gaussians
        kb = KeyBin2(collapse=False, n_projections=2, seed=0).fit(x)
        assert kb.model_.kept_dims.all()


class TestInputValidation:
    def test_nan_rejected(self):
        x = np.ones((10, 3))
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            KeyBin2().fit(x)

    def test_inf_rejected(self):
        x = np.ones((10, 3))
        x[5, 1] = np.inf
        with pytest.raises(ValidationError):
            KeyBin2().fit(x)

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            KeyBin2().fit(np.ones((1, 3)))

    def test_1d_input_treated_as_single_feature(self, rng):
        vals = np.concatenate([rng.normal(-5, 0.5, 300), rng.normal(5, 0.5, 300)])
        kb = KeyBin2(seed=0, n_projections=2).fit(vals)
        assert kb.n_clusters_ >= 2


class TestDegenerateData:
    def test_single_blob_single_cluster(self, rng):
        x = rng.normal(0, 1, (500, 8))
        kb = KeyBin2(seed=0, n_projections=4).fit(x)
        # One Gaussian blob: should not shatter into many clusters.
        assert kb.n_clusters_ <= 4

    def test_constant_data(self):
        x = np.ones((100, 5))
        kb = KeyBin2(seed=0, n_projections=2).fit(x)
        assert kb.n_clusters_ == 1
        assert np.all(kb.labels_ == 0)

    def test_two_points(self):
        x = np.array([[0.0, 0.0], [10.0, 10.0]])
        kb = KeyBin2(seed=0, n_projections=2).fit(x)
        assert kb.labels_.shape == (2,)

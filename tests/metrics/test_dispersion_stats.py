"""Tests for point-space CH and run statistics."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.metrics.stats import RunAggregate, mean_ci
from tests.metrics.dispersion import calinski_harabasz_points


class TestPointCH:
    def test_separated_beats_random(self, rng):
        a = rng.normal(-10, 1, (200, 2))
        b = rng.normal(10, 1, (200, 2))
        x = np.concatenate([a, b])
        good = np.repeat([0, 1], 200)
        bad = rng.integers(0, 2, 400)
        assert calinski_harabasz_points(x, good) > calinski_harabasz_points(x, bad)

    def test_single_cluster_minus_inf(self, rng):
        x = rng.random((50, 2))
        assert calinski_harabasz_points(x, np.zeros(50)) == float("-inf")

    def test_noise_excluded(self, rng):
        x = rng.random((50, 2))
        labels = np.repeat([0, 1], 25)
        with_noise = labels.copy()
        with_noise[0] = -1
        v1 = calinski_harabasz_points(x, labels)
        v2 = calinski_harabasz_points(x, with_noise)
        assert np.isfinite(v2)
        assert v1 != v2  # the excluded point changes the statistic

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            calinski_harabasz_points(rng.random((5, 2)), np.zeros(4))


class TestMeanCI:
    def test_known_values(self):
        mean, half = mean_ci([1.0, 2.0, 3.0], confidence=0.95)
        assert mean == pytest.approx(2.0)
        # t(0.975, df=2) = 4.3027; sem = 1/sqrt(3)
        assert half == pytest.approx(4.3027 / np.sqrt(3), rel=1e-3)

    def test_single_value_zero_halfwidth(self):
        mean, half = mean_ci([5.0])
        assert mean == 5.0 and half == 0.0

    def test_constant_sample_zero_halfwidth(self):
        mean, half = mean_ci([2.0, 2.0, 2.0])
        assert half == 0.0

    def test_wider_confidence_wider_interval(self):
        _, h95 = mean_ci([1.0, 2.0, 3.0, 4.0], 0.95)
        _, h99 = mean_ci([1.0, 2.0, 3.0, 4.0], 0.99)
        assert h99 > h95

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_ci([])

    def test_invalid_confidence(self):
        with pytest.raises(ValidationError):
            mean_ci([1.0], confidence=1.0)


class TestRunAggregate:
    def test_accumulates(self):
        agg = RunAggregate()
        agg.add(f1=0.9, time=1.0)
        agg.add(f1=0.8, time=2.0)
        assert agg.n_runs("f1") == 2
        mean, _ = agg.ci("f1")
        assert mean == pytest.approx(0.85)

    def test_formatted(self):
        agg = RunAggregate()
        agg.add(x=1.0)
        agg.add(x=1.0)
        assert agg.formatted("x") == "1.000 ± 0.000"

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            RunAggregate().ci("nope")

    def test_names_sorted(self):
        agg = RunAggregate()
        agg.add(z=1, a=2)
        assert agg.names() == ["a", "z"]

    def test_summary(self):
        agg = RunAggregate()
        agg.add(a=1.0)
        assert set(agg.summary()) == {"a"}

"""Tests for KS-based dimension collapsing."""

import numpy as np
import pytest

from repro.core.collapse import (
    collapse_dimensions,
    effective_supports,
    uniformity_statistics,
)
from repro.errors import ValidationError


def uniformity_statistic(counts):
    """KS statistic of one histogram: a one-row batch pass."""
    return float(uniformity_statistics(np.asarray(counts, dtype=np.float64)[None, :])[0])


def effective_support(counts):
    """99%-mass support of one histogram: a one-row batch pass."""
    return int(effective_supports(np.asarray(counts, dtype=np.float64)[None, :])[0])


class TestUniformityStatistic:
    def test_uniform_near_zero(self, rng):
        counts = np.full(64, 100.0) + rng.integers(-5, 5, 64)
        assert uniformity_statistic(counts) < 0.05

    def test_bimodal_large(self, rng):
        left = rng.normal(16, 2, 1000).astype(int)
        right = rng.normal(48, 2, 1000).astype(int)
        counts = np.bincount(np.clip(np.concatenate([left, right]), 0, 63),
                             minlength=64)
        assert uniformity_statistic(counts) > 0.2

    def test_empty_zero(self):
        assert uniformity_statistic(np.zeros(16)) == 0.0

    def test_single_occupied_bin_zero(self):
        counts = np.zeros(16)
        counts[7] = 100
        assert uniformity_statistic(counts) == 0.0

    def test_occupied_range_only(self):
        """A uniform block inside a wide window must read as uniform."""
        counts = np.zeros(64)
        counts[20:40] = 50.0
        assert uniformity_statistic(counts) < 0.05

    def test_invalid(self):
        with pytest.raises(ValidationError):
            uniformity_statistic(np.array([]))
        with pytest.raises(ValidationError):
            uniformity_statistic(np.array([-1.0]))


class TestEffectiveSupport:
    def test_concentrated(self):
        counts = np.zeros(32)
        counts[5] = 1000
        assert effective_support(counts) == 1

    def test_uniform_wide(self):
        assert effective_support(np.full(32, 10.0)) >= 31

    def test_empty(self):
        assert effective_support(np.zeros(8)) == 0


class TestCollapseDimensions:
    def _bimodal(self, rng, n=2000):
        vals = np.concatenate(
            [rng.normal(16, 2, n // 2), rng.normal(48, 2, n // 2)]
        ).astype(int)
        return np.bincount(np.clip(vals, 0, 63), minlength=64).astype(float)

    def test_keeps_structured_drops_uniform(self, rng):
        structured = self._bimodal(rng)
        uniform = np.full(64, structured.sum() / 64)
        counts = np.stack([structured, uniform])
        keep = collapse_dimensions(counts)
        assert keep.tolist() == [True, False]

    def test_drops_degenerate_spike(self, rng):
        structured = self._bimodal(rng)
        spike = np.zeros(64)
        spike[10] = structured.sum()
        counts = np.stack([structured, spike])
        keep = collapse_dimensions(counts)
        assert keep.tolist() == [True, False]

    def test_never_collapses_everything(self, rng):
        uniform = np.full(64, 100.0)
        counts = np.stack([uniform, uniform + rng.integers(0, 3, 64)])
        keep = collapse_dimensions(counts)
        assert keep.sum() == 1  # the most structured one survives

    def test_all_structured_all_kept(self, rng):
        counts = np.stack([self._bimodal(rng) for _ in range(4)])
        assert collapse_dimensions(counts).all()

    def test_invalid_shape(self):
        with pytest.raises(ValidationError):
            collapse_dimensions(np.zeros(8))

    def test_threshold_effect(self, rng):
        slightly = np.full(64, 100.0)
        slightly[:32] += 12  # mild skew
        counts = np.stack([self._bimodal(rng), slightly])
        strict = collapse_dimensions(counts, uniform_threshold=0.2)
        loose = collapse_dimensions(counts, uniform_threshold=0.001)
        assert strict.sum() <= loose.sum()

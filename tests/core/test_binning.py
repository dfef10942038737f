"""Tests for SpaceRange."""

import numpy as np
import pytest

from repro.core.binning import SpaceRange
from repro.errors import ValidationError


class TestSpaceRange:
    def test_from_data_covers_data(self, rng):
        x = rng.random((50, 3)) * 10 - 5
        sr = SpaceRange.from_data(x, margin=0.05)
        assert np.all(sr.contains(x))

    def test_margin_widens(self, rng):
        x = rng.random((50, 2))
        tight = SpaceRange.from_data(x, margin=0.0)
        wide = SpaceRange.from_data(x, margin=0.2)
        assert np.all(wide.r_min <= tight.r_min)
        assert np.all(wide.r_max >= tight.r_max)
        assert np.all(wide.span > tight.span)

    def test_degenerate_dimension_gets_width(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0]])
        sr = SpaceRange.from_data(x)
        assert sr.span[1] > 0

    def test_merge_is_union(self):
        a = SpaceRange(np.array([0.0]), np.array([1.0]))
        b = SpaceRange(np.array([-1.0]), np.array([0.5]))
        merged = a.merge(b)
        assert merged.r_min[0] == -1.0
        assert merged.r_max[0] == 1.0

    def test_merge_commutative(self):
        a = SpaceRange(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        b = SpaceRange(np.array([-1.0, 2.5]), np.array([0.5, 4.0]))
        ab, ba = a.merge(b), b.merge(a)
        assert np.array_equal(ab.r_min, ba.r_min)
        assert np.array_equal(ab.r_max, ba.r_max)

    def test_merge_dim_mismatch(self):
        a = SpaceRange(np.zeros(2), np.ones(2))
        b = SpaceRange(np.zeros(3), np.ones(3))
        with pytest.raises(ValidationError):
            a.merge(b)

    def test_expand(self):
        sr = SpaceRange(np.array([0.0]), np.array([10.0]))
        wide = sr.expand(0.5)
        assert wide.r_min[0] == -5.0
        assert wide.r_max[0] == 15.0

    def test_array_round_trip(self):
        sr = SpaceRange(np.array([0.0, -2.0]), np.array([1.0, 7.0]))
        again = SpaceRange.from_array(sr.to_array())
        assert np.array_equal(sr.r_min, again.r_min)
        assert np.array_equal(sr.r_max, again.r_max)

    def test_invalid_bounds(self):
        with pytest.raises(ValidationError):
            SpaceRange(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            SpaceRange(np.array([np.nan]), np.array([1.0]))

    def test_contains_boundary(self):
        sr = SpaceRange(np.array([0.0]), np.array([1.0]))
        assert sr.contains(np.array([[0.0], [1.0]])).all()
        assert not sr.contains(np.array([[1.01]]))[0]

    def test_immutable(self):
        sr = SpaceRange(np.zeros(1), np.ones(1))
        with pytest.raises(Exception):
            sr.r_min = np.array([5.0])

"""Tests for smoothing and discrete derivatives."""

import numpy as np
import pytest

from repro.core.smoothing import local_slopes_rows, moving_average_rows, paper_window
from repro.errors import ValidationError


def moving_average(y, window):
    """Moving average of one histogram: a one-row batch pass."""
    return moving_average_rows(np.asarray(y, dtype=np.float64)[None, :], window)[0]


def local_slopes(y, window):
    """Regression slopes of one histogram: a one-row batch pass."""
    return local_slopes_rows(np.asarray(y, dtype=np.float64)[None, :], window)[0]


def second_derivative(y, window):
    """The slope of the slopes (inflection detector)."""
    return local_slopes(local_slopes(y, window), window)


class TestPaperWindow:
    def test_bin_based_rule(self):
        assert paper_window(64) == 8
        assert paper_window(144) == 12

    def test_paper_bin_count_gives_log2_points(self):
        # With the paper's B = log2²(M) bins, w = log2(M): for M = 4096 → 12
        assert paper_window(12 ** 2) == 12

    def test_floor_one(self):
        assert paper_window(1) == 1
        assert paper_window(2) == 1

    def test_invalid(self):
        with pytest.raises(ValidationError):
            paper_window(0)
        with pytest.raises(ValidationError):
            paper_window(-4)


class TestMovingAverage:
    def test_window_one_is_copy(self):
        y = np.array([1.0, 5.0, 2.0])
        out = moving_average(y, 1)
        assert np.array_equal(out, y)
        assert out is not y

    def test_preserves_mass_of_constant(self):
        y = np.full(20, 3.0)
        assert np.allclose(moving_average(y, 5), 3.0)

    def test_smooths_spike(self):
        y = np.zeros(21)
        y[10] = 10.0
        sm = moving_average(y, 5)
        assert sm[10] < 10.0
        assert sm[8] > 0.0

    def test_no_phase_shift(self):
        """A symmetric bump stays centred after smoothing."""
        y = np.exp(-0.5 * ((np.arange(31) - 15) / 3.0) ** 2)
        sm = moving_average(y, 7)
        assert np.argmax(sm) == 15

    def test_short_input(self):
        y = np.array([2.0])
        assert np.array_equal(moving_average(y, 9), y)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            moving_average(np.zeros((2, 2)), 3)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            moving_average(np.zeros(5), 0)


class TestLocalSlopes:
    def test_linear_signal_constant_slope(self):
        y = 2.0 * np.arange(30) + 5.0
        slopes = local_slopes(y, 5)
        # Interior slopes must equal the true slope.
        assert np.allclose(slopes[3:-3], 2.0)

    def test_constant_signal_zero_slope(self):
        slopes = local_slopes(np.full(20, 7.0), 5)
        assert np.allclose(slopes, 0.0)

    def test_sign_tracks_derivative(self):
        y = np.sin(np.linspace(0, 2 * np.pi, 100))
        slopes = local_slopes(y, 5)
        # Rising at the start, falling in the middle.
        assert slopes[10] > 0
        assert slopes[50] < 0

    def test_tiny_input(self):
        assert np.allclose(local_slopes(np.array([1.0]), 3), 0.0)


class TestSecondDerivative:
    def test_quadratic_constant_curvature(self):
        y = np.arange(40, dtype=float) ** 2
        curv = second_derivative(y, 5)
        assert np.allclose(curv[6:-6], 2.0, atol=1e-8)

    def test_sign_at_valley(self):
        y = (np.arange(41, dtype=float) - 20) ** 2
        curv = second_derivative(y, 5)
        assert curv[20] > 0  # convex at the minimum

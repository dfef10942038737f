"""Histogram smoothing and discrete derivatives (paper §3.2).

The partitioner needs a smoothed view of each dimension's density before it
can find cuts. The paper uses a moving average with window
``w = sqrt(log2(M)²) = |log2(M)|`` followed by local (least-squares linear)
regression per window; the regression slope is the discrete first
derivative, and differentiating the slopes gives the second derivative that
flags inflection points. This is a Savitzky–Golay-style scheme and — as the
paper argues — reaches KDE-like quality at a fraction of the cost, because
it runs on ``B = O(log M)`` bins instead of ``M`` points.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "paper_window",
    "moving_average",
    "moving_average_rows",
    "local_slopes",
    "local_slopes_rows",
    "second_derivative",
]


def paper_window(n_bins: int) -> int:
    """The paper's smoothing window: the square root of the bin count.

    §3.2 sets the window "equal to the square root of the number of bins in
    the histogram (w = sqrt(log2²(M)))" — i.e. with the paper's
    ``B = log2²(M)`` bins the window is ``sqrt(B) = log2(M)``. The rule is
    bin-based, ``w = sqrt(B)``, which keeps the smoothed fraction of the
    space constant across depths.
    """
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")
    return max(1, int(round(math.sqrt(n_bins))))


def _check_window(y: np.ndarray, window: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError("smoothing operates on 1-D histograms")
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    return y


def _reflect_pad(y: np.ndarray, half: int) -> np.ndarray:
    """Rows of ``y`` padded by ``half`` mirrored bins each side (the edge
    bin itself is not repeated): ``np.pad(..., mode="reflect")`` for
    ``half < B``, without its per-call overhead."""
    return np.concatenate(
        [y[:, half:0:-1], y, y[:, -2:-half - 2:-1]], axis=1
    )


def moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with reflected boundaries.

    The effective window is ``2·(window // 2) + 1`` (always odd, so the
    result is not phase-shifted). ``window == 1`` returns a copy.
    """
    y = _check_window(y, window)
    return moving_average_rows(y[None, :], window)[0]


def moving_average_rows(y: np.ndarray, window: int) -> np.ndarray:
    """:func:`moving_average` of every row of an (R × B) array at once.

    One reflect-pad and one cumulative sum along the rows; row ``r`` of
    the result is bit-identical to ``moving_average(y[r], window)``.
    """
    half = window // 2
    n_bins = y.shape[1]
    if half == 0 or n_bins <= 1:
        return y.copy()
    half = min(half, n_bins - 1)
    padded = _reflect_pad(y, half)
    kernel_size = 2 * half + 1
    csum = np.zeros((y.shape[0], padded.shape[1] + 1))
    np.cumsum(padded, axis=1, out=csum[:, 1:])
    return (csum[:, kernel_size:] - csum[:, :-kernel_size]) / kernel_size


def local_slopes(y: np.ndarray, window: int) -> np.ndarray:
    """First derivative via windowed least-squares linear regression.

    For a centered window of half-width ``h``, the regression slope at bin
    ``i`` has the closed form ``Σ_k k·y[i+k] / Σ_k k²`` (k = −h..h), which a
    single correlation evaluates for every bin at once.
    """
    y = _check_window(y, window)
    return local_slopes_rows(y[None, :], window)[0]


def local_slopes_rows(y: np.ndarray, window: int) -> np.ndarray:
    """:func:`local_slopes` of every row of an (R × B) array at once.

    The reflect-padded rows are laid end to end and correlated in one
    call. Each output is the same length-``2h+1`` dot product a per-row
    correlation takes, over the same values, so row ``r`` of the result
    is bit-identical to ``local_slopes(y[r], window)``; the ``2h``
    outputs whose window straddles two rows are dropped.
    """
    n_rows, n_bins = y.shape
    half = max(1, window // 2)
    if n_bins < 2:
        return np.zeros_like(y)
    half = min(half, n_bins - 1)
    k = np.arange(-half, half + 1, dtype=np.float64)
    denom = float(np.sum(k * k))
    padded = _reflect_pad(y, half)
    width = padded.shape[1]
    # np.correlate slides the kernel without flipping, matching Σ k·y[i+k].
    flat = np.correlate(padded.ravel(), k, mode="valid")
    out = np.empty(n_rows * width)
    out[: flat.size] = flat
    return out.reshape(n_rows, width)[:, :n_bins] / denom


def second_derivative(y: np.ndarray, window: int) -> np.ndarray:
    """Second derivative: the slope of the slopes (inflection detector)."""
    return local_slopes(local_slopes(y, window), window)

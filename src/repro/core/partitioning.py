"""Histogram partitioning via discrete optimization (paper §3.2).

This replaces KeyBin1's density-threshold heuristic. Per dimension:

1. smooth the merged histogram (moving average, window
   ``w = |log2(M)|``),
2. take the local-regression first derivative; sign changes −→+ mark
   valleys (candidate cuts) and +→− mark modes,
3. the second derivative confirms genuine inflection structure around a
   valley (a flat plateau produces no inflection pair and is rejected),
4. score each candidate valley by its *prominence* — how far the density
   drops below the smaller of its neighbouring modes — and keep cuts whose
   prominence clears a relative threshold. This is the discrete
   optimization: prominent valleys are exactly the cut set that maximizes
   between-partition mass separation while minimizing within-partition
   spread for a fixed number of cuts, and the bootstrap layer (§3.3)
   compares different cut cardinalities through the CH index.

Runs of empty bins between occupied regions are always cuts: disconnected
support can never belong to one cluster in the key space.

A cut at position ``c`` separates bins ``<= c`` from bins ``> c``, matching
``searchsorted(cuts, bin, side="left")`` downstream.

Array form and cost. The window depends only on the bin count B, so a fit
cuts every kept dimension of every projection at one depth in a single
call on an (R × B) stack: one reflect-pad and cumulative sum smooth all
rows, one correlation over the rows laid end to end gives all slopes,
sign crossings and prominences come from flat index arithmetic over the
crossings, and gap cuts from the occupied bins. That is one O(R·B) pass
per depth, whatever the number of points; only the greedy dedup of the
few surviving cuts walks them in Python. Each row's cuts are exactly the
ones the per-dimension loop this replaced produced (kept in the tests as
the oracle). The ``"kde"`` smoother is still evaluated row by row.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.smoothing import local_slopes_rows, moving_average_rows, paper_window
from repro.errors import ValidationError

__all__ = ["find_cuts", "kde_density"]


def kde_density(counts: np.ndarray) -> np.ndarray:
    """Gaussian-KDE smoothed density evaluated at every bin centre.

    The alternative smoother §3.2 compares against: treat bin centres as a
    weighted sample and evaluate a Gaussian kernel density estimate back on
    the bin grid. The bandwidth follows Silverman's rule on the weighted
    sample. Returns a curve scaled to the histogram's total mass so it is
    directly comparable to the moving-average smoother.
    """
    counts = np.asarray(counts, dtype=np.float64).ravel()
    total = counts.sum()
    if counts.size < 2 or total <= 0:
        return counts.copy()
    centers = np.arange(counts.size, dtype=np.float64)
    mean = float(np.sum(centers * counts) / total)
    var = float(np.sum((centers - mean) ** 2 * counts) / total)
    sigma = np.sqrt(max(var, 1e-12))
    # Silverman's rule with the robust scale (min of sigma and IQR/1.34)
    # and the effective sample size of the weights; the robust scale
    # keeps multimodal histograms from inflating the bandwidth.
    cdf = np.cumsum(counts) / total
    q1 = float(np.searchsorted(cdf, 0.25))
    q3 = float(np.searchsorted(cdf, 0.75))
    robust = min(sigma, max((q3 - q1) / 1.34, 1e-6))
    neff = total ** 2 / max(np.sum(counts**2), 1.0)
    bandwidth = max(0.9 * robust * neff ** (-1.0 / 5.0), 0.5)
    # O(B²) kernel evaluation — B is O(log²M), so this stays tiny, but it
    # is still measurably slower than the O(B·w) moving average (the
    # paper's argument for the simpler smoother).
    diff = centers[:, None] - centers[None, :]
    kernel = np.exp(-0.5 * (diff / bandwidth) ** 2)
    density = kernel @ counts
    density *= total / max(density.sum(), 1e-300)
    return density




def _crossings(slopes: np.ndarray, live: np.ndarray):
    """Slope sign crossings of every live row: (rows, positions, is_valley).

    Exact zeros continue the previous sign, so plateaus do not spray
    spurious crossings: a crossing sits at each nonzero slope whose sign
    differs from the row's previous nonzero one (or, for the row's first
    nonzero past bin 0, from the leading zeros). −→+ is a valley, +→− a
    mode. Crossings come out in row-major order.
    """
    n_bins = slopes.shape[1]
    sign = np.sign(slopes)
    sign[~live] = 0.0
    nonzero = np.flatnonzero(sign)
    signs = sign.ravel()[nonzero]
    rows, pos = np.divmod(nonzero, n_bins)
    previous = np.zeros_like(signs)
    previous[1:] = np.where(rows[1:] == rows[:-1], signs[:-1], 0.0)
    cross = (signs != previous) & (pos > 0)
    return rows[cross], pos[cross], signs[cross] > 0


def _prominences(
    smoothed: np.ndarray, rows: np.ndarray, pos: np.ndarray, valleys: np.ndarray
) -> np.ndarray:
    """Depth of each valley crossing below the smaller of its flanking
    peaks.

    After a row's first crossing the signs alternate, so the crossings
    either side of a valley in the same row are its nearest modes. A
    valley with no mode on one side measures against the highest point
    toward that edge instead.
    """
    n_bins = smoothed.shape[1]
    flat = np.append(smoothed.ravel(), -np.inf)  # every slice end is a valid index
    height = flat[rows * n_bins + pos]
    same_prev = np.zeros(rows.size, dtype=bool)
    same_prev[1:] = rows[1:] == rows[:-1]
    same_next = np.append(same_prev[1:], False)
    at = rows[valleys] * n_bins + pos[valleys]
    row_start = rows[valleys] * n_bins
    to_left = np.maximum.reduceat(flat, np.stack([row_start, at + 1], axis=1).ravel())[::2]
    to_right = np.maximum.reduceat(flat, np.stack([at, row_start + n_bins], axis=1).ravel())[::2]
    left_peak = np.where(same_prev[valleys], height[valleys - 1], to_left)
    right_peak = np.where(
        same_next[valleys], height[np.minimum(valleys + 1, rows.size - 1)], to_right
    )
    return np.minimum(left_peak, right_peak) - height[valleys]


def _gap_cuts(counts: np.ndarray, min_gap: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cuts): a cut inside every run of >= min_gap empty bins
    separating support, at the middle of the run."""
    n_bins = counts.shape[1]
    occupied = np.flatnonzero(counts > 0)
    rows = occupied // n_bins
    gaps = np.diff(occupied)
    big = (gaps > min_gap) & (rows[1:] == rows[:-1])
    return rows[:-1][big], occupied[:-1][big] % n_bins + gaps[big] // 2


def _dedup_rows(
    rows: np.ndarray, cuts: np.ndarray, n_rows: int, n_bins: int, step: int
) -> List[np.ndarray]:
    """Sorted, deduplicated cuts of every row.

    Two cuts closer than ``step`` (the window) describe the same valley
    once smoothing noise is accounted for: walking a row left to right, a
    cut is dropped when it lies within ``step`` of the last cut kept. That
    greedy walk is sequential, so it runs in Python, but only over the few
    surviving cuts and only when some row has a close pair.
    """
    key = np.unique(rows.astype(np.int64) * n_bins + cuts)
    rows, cuts = np.divmod(key, n_bins)
    if np.any((np.diff(cuts) < step) & (rows[1:] == rows[:-1])):
        keep = np.ones(key.size, dtype=bool)
        last_row = last = -1
        for i, (r, c) in enumerate(zip(rows.tolist(), cuts.tolist())):
            if r == last_row and c - last < step:
                keep[i] = False
            else:
                last_row, last = r, c
        rows, cuts = rows[keep], cuts[keep]
    # A cut at the last bin separates nothing.
    inside = cuts < n_bins - 1
    rows, cuts = rows[inside], cuts[inside]
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    return [cuts[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def find_cuts(
    counts: np.ndarray,
    min_prominence: float = 0.10,
    smoother: str = "ma",
):
    """Find partition cuts in one histogram, or in every row of a stack.

    Parameters
    ----------
    counts:
        1-D bin counts for one dimension, or an (R × B) stack of such
        histograms (every kept dimension of every projection at one
        depth). A stack is cut in one array pass; row ``r`` gets exactly
        the cuts ``find_cuts(counts[r])`` would give. The smoothing and
        regression window is the paper's ``sqrt(B)`` for B bins.
    min_prominence:
        Relative prominence threshold: a valley survives when its depth
        below the smaller flanking mode exceeds
        ``min_prominence · max(smoothed)`` (the row's maximum). A run of
        empty bins at least one window long forces a cut regardless of
        prominence (shorter runs are smoothing artifacts).
    smoother:
        ``"ma"`` — the paper's moving-average + local regression (default);
        ``"kde"`` — Gaussian kernel density estimation (the alternative
        §3.2 benchmarks against; similar cuts, higher cost; evaluated row
        by row).

    Returns
    -------
    For 1-D ``counts``: a sorted int64 array of cut positions (possibly
    empty → one cluster). For a stack: a list of R such arrays.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim not in (1, 2):
        raise ValidationError("counts must be 1-D or an (R × B) stack")
    if counts.shape[-1] < 1:
        raise ValidationError("counts must be non-empty")
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    if not (0.0 <= min_prominence <= 1.0):
        raise ValidationError(f"min_prominence must be in [0, 1], got {min_prominence}")
    if smoother not in ("ma", "kde"):
        raise ValidationError(f"smoother must be 'ma' or 'kde', got {smoother!r}")
    one_row = counts.ndim == 1
    rows = counts[None, :] if one_row else counts
    n_rows, n_bins = rows.shape
    window = paper_window(n_bins)
    if n_rows == 0:
        return []

    if smoother == "kde":
        smoothed = np.array([kde_density(r) for r in rows])
    else:
        smoothed = moving_average_rows(rows, window)
    slopes = local_slopes_rows(smoothed, window)

    cut_rows = cut_pos = np.empty(0, dtype=np.int64)
    if n_bins >= 3:
        live = rows.sum(axis=1) > 0
        c_rows, c_pos, c_up = _crossings(slopes, live)
        peak = smoothed.max(axis=1)
        valleys = np.flatnonzero(c_up & (peak[c_rows] > 0))
        proms = _prominences(smoothed, c_rows, c_pos, valleys)
        keep = valleys[proms >= min_prominence * peak[c_rows[valleys]]]
        g_rows, g_pos = _gap_cuts(rows, window)
        cut_rows = np.concatenate([c_rows[keep], g_rows])
        cut_pos = np.concatenate([c_pos[keep], g_pos])
    cuts = _dedup_rows(cut_rows, cut_pos, n_rows, n_bins, max(1, window))
    return cuts[0] if one_row else cuts

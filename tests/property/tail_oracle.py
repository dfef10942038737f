"""Per-dimension reference implementation of the histogram→model tail.

These are the loop forms the array passes in ``repro.core`` replaced:
cuts found one histogram at a time, interval statistics one interval at a
time, bins mapped to intervals by a per-dimension ``searchsorted``, cell
codes packed by Horner's rule and tables built by ``np.unique``. They are
kept only as the oracle the equivalence tests compare against, so each
function mirrors the signature of the runtime piece it stands in for and
can be patched over it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.partitioning import kde_density
from repro.core.primary import GlobalClusterTable
from repro.core.smoothing import paper_window


# -- cuts ---------------------------------------------------------------------


def moving_average(y: np.ndarray, window: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    half = window // 2
    if half == 0 or y.size <= 1:
        return y.copy()
    half = min(half, y.size - 1)
    padded = np.pad(y, half, mode="reflect")
    kernel_size = 2 * half + 1
    csum = np.cumsum(np.concatenate([[0.0], padded]))
    return (csum[kernel_size:] - csum[:-kernel_size]) / kernel_size


def local_slopes(y: np.ndarray, window: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    half = max(1, window // 2)
    if y.size < 2:
        return np.zeros_like(y)
    half = min(half, y.size - 1)
    k = np.arange(-half, half + 1, dtype=np.float64)
    denom = float(np.sum(k * k))
    padded = np.pad(y, half, mode="reflect")
    return np.correlate(padded, k, mode="valid") / denom


def _sign_changes(slopes: np.ndarray):
    sign = np.sign(slopes)
    for i in range(1, sign.size):
        if sign[i] == 0:
            sign[i] = sign[i - 1]
    change = np.flatnonzero(sign[1:] != sign[:-1]) + 1
    valleys = change[sign[change] > 0]
    modes = change[sign[change] < 0]
    return valleys.astype(np.int64), modes.astype(np.int64)


def _prominence(smoothed: np.ndarray, valley: int, modes: np.ndarray) -> float:
    left_modes = modes[modes < valley]
    right_modes = modes[modes > valley]
    left_peak = smoothed[left_modes[-1]] if left_modes.size else smoothed[:valley + 1].max()
    right_peak = smoothed[right_modes[0]] if right_modes.size else smoothed[valley:].max()
    return float(min(left_peak, right_peak) - smoothed[valley])


def _gap_cuts(counts: np.ndarray, min_gap: int) -> np.ndarray:
    occupied = np.flatnonzero(counts > 0)
    if occupied.size < 2:
        return np.empty(0, dtype=np.int64)
    gaps = np.diff(occupied)
    big = np.flatnonzero(gaps > min_gap)
    return (occupied[big] + gaps[big] // 2).astype(np.int64)


def find_cuts_1d(
    counts: np.ndarray,
    n_points: Optional[int] = None,
    window: Optional[int] = None,
    min_prominence: float = 0.10,
    min_gap: Optional[int] = None,
    smoother: str = "ma",
) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64).ravel()
    total = counts.sum()
    if n_points is None:
        n_points = int(max(total, 1))
    if window is None:
        window = paper_window(n_points, n_bins=counts.size)
    smoothed = kde_density(counts) if smoother == "kde" else moving_average(counts, window)
    slopes = local_slopes(smoothed, window)
    cuts: List[int] = []
    if total > 0 and counts.size >= 3:
        valleys, modes = _sign_changes(slopes)
        peak = smoothed.max()
        if peak > 0 and valleys.size:
            proms = np.array([_prominence(smoothed, int(v), modes) for v in valleys])
            keep = proms >= min_prominence * peak
            cuts.extend(int(v) for v in valleys[keep])
        gap = window if min_gap is None else min_gap
        cuts.extend(int(g) for g in _gap_cuts(counts, int(gap)))
    deduped: List[int] = []
    for c in sorted(set(cuts)):
        if not deduped or c - deduped[-1] >= max(1, window):
            deduped.append(c)
    return np.array([c for c in deduped if 0 <= c < counts.size - 1], dtype=np.int64)


def find_cuts(counts: np.ndarray, **kwargs):
    """Drop-in for :func:`repro.core.partitioning.find_cuts`: a stack of
    histograms is cut one row at a time."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 2:
        return [find_cuts_1d(row, **kwargs) for row in counts]
    return find_cuts_1d(counts, **kwargs)


# -- scoring ------------------------------------------------------------------


def marginal_percentile_bin(counts: np.ndarray, percentile: float = 50.0) -> int:
    counts = np.asarray(counts, dtype=np.float64).ravel()
    total = counts.sum()
    if total <= 0:
        return counts.size // 2
    target = total * percentile / 100.0
    return int(np.searchsorted(np.cumsum(counts), target))


def interval_stats(counts: np.ndarray, cuts: np.ndarray):
    counts = np.asarray(counts, dtype=np.float64).ravel()
    cuts = np.asarray(cuts, dtype=np.int64).ravel()
    boundaries = np.concatenate([[-1], cuts, [counts.size - 1]])
    n_intervals = boundaries.size - 1
    modes = np.empty(n_intervals, dtype=np.int64)
    masses = np.empty(n_intervals, dtype=np.float64)
    within = np.empty(n_intervals, dtype=np.float64)
    bin_ids = np.arange(counts.size, dtype=np.float64)
    for i in range(n_intervals):
        lo = int(boundaries[i]) + 1
        hi = int(boundaries[i + 1]) + 1
        seg = counts[lo:hi]
        masses[i] = seg.sum()
        mode = lo + int(np.argmax(seg)) if masses[i] > 0 else (lo + hi - 1) // 2
        modes[i] = mode
        within[i] = float(np.sum((bin_ids[lo:hi] - mode) ** 2 * seg))
    return modes, masses, within


def histogram_ch_index(
    counts: np.ndarray,
    cuts: Sequence[np.ndarray],
    cell_intervals: np.ndarray,
    paper_exact: bool = False,
) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    n_dims, n_bins = counts.shape
    cells = np.asarray(cell_intervals, dtype=np.int64)
    n_clusters = cells.shape[0]
    if n_clusters < 2:
        return float("-inf")
    w_q = 0.0
    b_q = 0.0
    for j in range(n_dims):
        modes, masses, within = interval_stats(counts[j], np.asarray(cuts[j]))
        centre = marginal_percentile_bin(counts[j], 50.0)
        idx = cells[:, j]
        w_q += float(np.sum(within[idx]))
        b_q += float(np.sum((modes[idx] - centre) ** 2 * masses[idx]))
    if w_q <= 0.0:
        return float("inf") if b_q > 0 else float("-inf")
    shape_factor = (n_dims * n_bins - n_clusters) / (n_clusters - 1)
    if n_clusters > 2:
        log_factor = math.log2(n_clusters - 1)
    else:
        log_factor = 0.0 if paper_exact else 1.0
    return (b_q / w_q) * shape_factor * log_factor


# -- cell tables --------------------------------------------------------------


def codes_for_bins(partition, bins: np.ndarray, bin_depth: Optional[int] = None) -> np.ndarray:
    """Drop-in for ``PrimaryPartition.codes_for_bins``: shift to the
    partition depth, ``searchsorted`` per dimension, Horner-pack."""
    bins = np.asarray(bins).astype(np.int64)
    if bin_depth is not None:
        bins = bins >> (bin_depth - partition.depth)
    code = np.zeros(bins.shape[0], dtype=np.int64)
    for j, c in enumerate(partition.cuts):
        code *= c.size + 1
        code += np.searchsorted(c, bins[:, j], side="left")
    return code


def from_points(codes_of_points: np.ndarray, weights: Optional[np.ndarray] = None):
    """Drop-in for ``GlobalClusterTable.from_points``: ``np.unique``."""
    codes = np.asarray(codes_of_points, dtype=np.int64).ravel()
    uniq, inverse = np.unique(codes, return_inverse=True)
    sizes = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(sizes, inverse, 1 if weights is None else np.asarray(weights, np.int64))
    return GlobalClusterTable(uniq, sizes)

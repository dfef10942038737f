"""Histogram-space Calinski–Harabasz index (paper §3.3, eqs. 2a–2c).

Rates a candidate clustering (a cut set over the histogram space, plus the
occupied cells of the induced interval grid) using only bin keys and bin
densities — never point coordinates — so the assessment cost is O(B) per
dimension regardless of dataset size. This is what lets the bootstrap over
random projections pick the most separable model cheaply.

Definitions (following the paper):

* a *cluster* ``C_q`` is an occupied cell of the interval grid; its extent
  along dimension ``j`` is a contiguous bin range,
* the cluster centroid ``c_q[j]`` is the modal bin of the (marginal)
  histogram restricted to that range,
* the dataset centre ``c[j]`` is the 50th-percentile bin of the full
  marginal histogram,
* within-dispersion ``W_Q`` (eq. 2b) sums density-weighted squared bin
  offsets from ``c_q``, and between-dispersion ``B_Q`` (eq. 2c) sums
  squared centroid offsets from ``c`` weighted by cluster mass,
* the index (eq. 2a) is ``(B_Q/W_Q) · (|Bins|−|Q|)/(|Q|−1) · log2(|Q|−1)``.

Deviation note: the paper's trailing ``log2(|Q|−1)`` factor is exactly zero
for two-cluster models (log2 1 = 0), which would make every 2-cluster
partition score 0 regardless of quality. We use ``max(log2(|Q|−1), 1)`` so
2-cluster models remain comparable; for |Q| ≥ 3 this matches the paper.
Single-cluster models score ``-inf`` (nothing to rate).

Array form and cost. Every interval of every dimension gets one global
id, so a bin→interval id table turns the per-interval statistics into one
``bincount`` (masses, within-dispersions) and one ``reduceat`` pair
(modes) over the (n_dims × B) histogram: O(n_dims·B), plus an
O(|Q|·n_dims) gather over the occupied cells. :func:`histogram_ch_scores`
makes that one pass over the stacked rows of many candidates at one
depth, and each candidate pays only its gather. Counts are whole
numbers, so every sum (below 2^53) is exact in float64 and the scores are
bit-identical to the per-interval loop this replaced (kept in the tests as
the oracle).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.kernels.labels import interval_id_table

__all__ = [
    "histogram_ch_index", "histogram_ch_scores", "interval_stats",
]


def _percentile_bins(counts: np.ndarray, percentile: float) -> np.ndarray:
    """Percentile bin of every row of (n_dims × B) counts: the first bin
    whose running mass reaches the target (the middle bin of an empty
    row)."""
    n_bins = counts.shape[1]
    total = counts.sum(axis=1)
    target = total * percentile / 100.0
    below = (np.cumsum(counts, axis=1) < target[:, None]).sum(axis=1)
    return np.where(total > 0, below, n_bins // 2)


def _interval_stats_rows(
    counts: np.ndarray, cuts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval (mode bin, mass, within-dispersion) of every row.

    Intervals of all rows are numbered consecutively (row ``j``'s start at
    ``offsets[j]``), so one ``bincount`` over bin→interval ids gives every
    mass and every within-dispersion, and one ``reduceat`` pair finds every
    mode (the first bin at the interval's maximum). Returns
    ``(modes, masses, within, offsets)``.
    """
    n_dims, n_bins = counts.shape
    ids = interval_id_table(cuts, n_bins)
    n_intervals = ids[:, -1] + 1
    offsets = np.concatenate([[0], np.cumsum(n_intervals)[:-1]])
    seg = (ids + offsets[:, None]).ravel()
    flat = counts.ravel()
    bin_pos = np.tile(np.arange(n_bins), n_dims)
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    lengths = np.append(starts[1:], flat.size) - starts
    masses = np.bincount(seg, weights=flat, minlength=starts.size)
    peak = np.maximum.reduceat(flat, starts)
    first_peak = np.minimum.reduceat(
        np.where(flat == peak[seg], np.arange(flat.size), flat.size), starts
    )
    lo = bin_pos[starts]
    modes = np.where(masses > 0, bin_pos[first_peak], (2 * lo + lengths - 1) // 2)
    within = np.bincount(
        seg, weights=(bin_pos - modes[seg]) ** 2 * flat, minlength=starts.size
    )
    return modes, masses, within, offsets


def interval_stats(
    counts: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval (mode bin, mass, within-dispersion) for one dimension.

    ``cuts`` partitions bins into ``len(cuts)+1`` intervals; interval ``i``
    spans bins ``(cuts[i-1], cuts[i]]`` in searchsorted-right convention.
    """
    counts = np.asarray(counts, dtype=np.float64).ravel()
    cuts = np.asarray(cuts, dtype=np.int64).ravel()
    modes, masses, within, _ = _interval_stats_rows(counts[None, :], [cuts])
    return modes, masses, within


def histogram_ch_index(
    counts: np.ndarray,
    cuts: Sequence[np.ndarray],
    cell_intervals: np.ndarray,
) -> float:
    """Calinski–Harabasz score of a cut set on the histogram space.

    Parameters
    ----------
    counts:
        (n_dims × B) consolidated histogram at the working depth (kept
        dimensions only).
    cuts:
        Per-dimension sorted cut arrays (same convention as
        :func:`repro.core.partitioning.find_cuts`).
    cell_intervals:
        (|Q| × n_dims) integer array: for each occupied cell (cluster), its
        interval index along every dimension. Produced during assignment or
        gathered from ranks — tiny either way.

    Returns
    -------
    The score; ``-inf`` when |Q| < 2 or the within-dispersion is zero in a
    degenerate way that makes the ratio meaningless.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValidationError("counts must be (n_dims × B)")
    n_dims = counts.shape[0]
    if len(cuts) != n_dims:
        raise ValidationError(f"need one cut array per dimension ({n_dims})")
    cells = np.asarray(cell_intervals, dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != n_dims:
        raise ValidationError("cell_intervals must be (|Q| × n_dims)")
    if cells.shape[0] < 2:
        return float("-inf")

    cuts = [np.asarray(c, dtype=np.int64).ravel() for c in cuts]
    n_intervals = np.array([c.size + 1 for c in cuts])
    if (cells < 0).any() or (cells >= n_intervals).any():
        raise ValidationError("cell interval index out of range")
    return histogram_ch_scores(counts, cuts, [0], [cells])[0]


def histogram_ch_scores(
    counts: np.ndarray,
    cuts: Sequence[np.ndarray],
    first_rows: Sequence[int],
    cell_intervals: Sequence[np.ndarray],
) -> List[float]:
    """:func:`histogram_ch_index` of many candidates over one histogram stack.

    ``counts`` stacks the (kept) rows of every candidate at one depth and
    ``cuts`` holds one cut array per row; candidate ``i`` owns the
    ``cell_intervals[i].shape[1]`` rows from ``first_rows[i]``. The
    interval statistics of every row come from one pass, and each score
    then gathers its candidate's occupied cells. Cells are trusted to be
    in range (the tail decodes them from cell codes).
    """
    counts = np.asarray(counts, dtype=np.float64)
    n_bins = counts.shape[1]
    modes, masses, within, offsets = _interval_stats_rows(counts, cuts)
    centre = _percentile_bins(counts, 50.0)
    scores = []
    for first, cells in zip(first_rows, cell_intervals):
        n_clusters, n_dims = cells.shape
        if n_clusters < 2:
            scores.append(float("-inf"))
            continue
        rows = slice(first, first + n_dims)
        idx = cells + offsets[rows]
        # Counts are whole numbers, so every term and partial sum is an
        # exact integer in float64 (below 2^53): the order of summation
        # cannot change the result.
        w_q = float(within[idx].sum())
        b_q = float(((modes[idx] - centre[rows]) ** 2 * masses[idx]).sum())
        scores.append(_ch_value(w_q, b_q, n_dims * n_bins, n_clusters))
    return scores


def _ch_value(w_q: float, b_q: float, total_bins: int, n_clusters: int) -> float:
    """Eq. 2a from the dispersions of ``n_clusters`` >= 2 clusters."""
    if w_q <= 0.0:
        # Perfectly tight clusters: infinitely good separation unless the
        # between term is also zero (all mass in one spot).
        return float("inf") if b_q > 0 else float("-inf")
    shape_factor = (total_bins - n_clusters) / (n_clusters - 1)
    # The paper's literal log2(|Q|−1) is zero at |Q| = 2; guarded to 1.
    log_factor = math.log2(n_clusters - 1) if n_clusters > 2 else 1.0
    return (b_q / w_q) * shape_factor * log_factor

"""Dimension collapsing via Kolmogorov–Smirnov statistics (paper §3.1).

After histograms are consolidated, "statistically anomalous dimensions are
identified with the Kolmogorov–Smirnov test and collapsed." A projected
dimension earns its keep only if its marginal density carries cluster
structure; two failure modes are collapsed:

* **noise-like** — the density is statistically indistinguishable from
  uniform over its occupied range (KS statistic below a threshold). Cutting
  such a dimension manufactures clusters out of sampling noise.
* **degenerate** — essentially all mass sits in a couple of bins (a nearly
  constant direction). No ordering information survives binning there.

Both tests run on the histogram only — O(B) per dimension, independent of
the number of points, as required for in-situ use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "uniformity_statistic",
    "uniformity_statistics",
    "effective_support",
    "effective_supports",
    "collapse_dimensions",
]


def _check_table(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValidationError("expected an (n_dims × B) histogram table")
    if counts.shape[1] == 0:
        raise ValidationError("counts must be non-empty")
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    return counts


def uniformity_statistics(counts: np.ndarray) -> np.ndarray:
    """KS distance between each row's ECDF and the uniform CDF.

    Computed over each row's occupied range (first to last non-empty
    bin), so a cluster sitting in a corner of a wide binning window is
    not mistaken for structure. A row with no or single-bin support
    scores 0.0 (perfectly "uniform": nothing to cut).

    One pass over the (n_dims × B) table. Inside the occupied range a
    row's running sum equals the running sum of the range alone (the
    bins before it are empty), and with whole-number counts every sum is
    exact, so the result is bit-identical to measuring each row's
    occupied slice on its own.
    """
    return _uniformity(_check_table(counts))


def _uniformity(counts: np.ndarray) -> np.ndarray:
    n_dims, n_bins = counts.shape
    occupied = counts > 0
    any_occupied = occupied.any(axis=1)
    lo = np.argmax(occupied, axis=1)
    hi = n_bins - 1 - np.argmax(occupied[:, ::-1], axis=1)
    width = hi - lo + 1
    cum = np.cumsum(counts, axis=1)
    total = cum[np.arange(n_dims), hi]
    idx = np.arange(n_bins)
    inside = (idx >= lo[:, None]) & (idx <= hi[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        ecdf = cum / total[:, None]
        # Uniform CDF evaluated at the right edge of each bin.
        uniform = (idx - lo[:, None] + 1) / width[:, None]
        gap = np.where(inside, np.abs(ecdf - uniform), 0.0)
    stats = gap.max(axis=1)
    stats[~any_occupied | (width <= 1)] = 0.0
    return stats


def uniformity_statistic(counts: np.ndarray) -> float:
    """KS statistic of one histogram; see :func:`uniformity_statistics`."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    return float(uniformity_statistics(counts[None, :])[0])


def effective_supports(counts: np.ndarray) -> np.ndarray:
    """Number of bins holding 99% of each row's mass (degeneracy check);
    0 for an empty row. One pass over the (n_dims × B) table."""
    return _support(_check_table(counts))


def _support(counts: np.ndarray) -> np.ndarray:
    cum = np.cumsum(-np.sort(-counts, axis=1), axis=1)
    total = cum[:, -1]
    support = (cum < 0.99 * total[:, None]).sum(axis=1) + 1
    support[total == 0] = 0
    return support


def effective_support(counts: np.ndarray) -> int:
    """99%-mass support of one histogram; see :func:`effective_supports`."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    return int(effective_supports(counts[None, :])[0])


def collapse_dimensions(
    counts: np.ndarray,
    uniform_threshold: float = 0.05,
    min_support_bins: int = 3,
) -> np.ndarray:
    """Decide which projected dimensions to keep.

    Parameters
    ----------
    counts:
        (n_dims × B) consolidated histogram at the working depth.
    uniform_threshold:
        Dimensions whose KS-vs-uniform statistic is below this are
        collapsed as noise-like. The classic large-sample KS critical value
        at α=0.05 is ``1.36/sqrt(M)``; a fixed small threshold is used
        instead because histogram bins correlate neighbouring samples.
    min_support_bins:
        Dimensions whose 99%-mass support covers fewer bins are collapsed
        as degenerate.

    Returns
    -------
    Boolean keep-mask of length n_dims. If every dimension would collapse,
    the single most structured dimension (largest KS statistic) is kept so
    downstream steps always have a space to work in.
    """
    counts = _check_table(counts)
    if not (0.0 <= uniform_threshold <= 1.0):
        raise ValidationError("uniform_threshold must be in [0, 1]")
    stats = _uniformity(counts)
    support = _support(counts)
    keep = (stats >= uniform_threshold) & (support >= min_support_bins)
    if not keep.any():
        keep = np.zeros(counts.shape[0], dtype=bool)
        keep[int(np.argmax(stats))] = True
    return keep

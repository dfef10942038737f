"""Histogram accumulation kernels.

Per-dimension bin densities are the *only* data-derived state KeyBin2 ever
communicates, so this is the hot accumulation path. Counting uses a single
flattened ``bincount`` over ``dim * n_bins + bin`` — one pass over the block
regardless of dimensionality, matching the GPU pattern of per-block shared-
memory histograms merged into the global one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError

__all__ = ["accumulate_histogram"]


def accumulate_histogram(
    bins: np.ndarray,
    n_bins: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Count bin occupancy per dimension.

    Parameters
    ----------
    bins:
        (M × N) integer bin indices, each in ``[0, n_bins)``.
    n_bins:
        Number of bins per dimension.
    out:
        Optional (N × n_bins) int64 accumulator, added to in place —
        this is what makes streaming updates O(batch).

    Returns
    -------
    (N × n_bins) int64 counts.
    """
    bins = np.asarray(bins)
    if bins.ndim != 2:
        raise ValidationError("accumulate_histogram needs a 2-D bins array")
    m, n_dims = bins.shape
    if out is None:
        out = np.zeros((n_dims, n_bins), dtype=np.int64)
    elif out.shape != (n_dims, n_bins):
        raise ValidationError(
            f"out shape {out.shape} != expected {(n_dims, n_bins)}"
        )

    if m == 0:
        return out
    offsets = (np.arange(n_dims, dtype=np.int64) * n_bins).reshape(1, -1)
    flat = bins.astype(np.int64, copy=False) + offsets
    out += np.bincount(flat.ravel(), minlength=n_dims * n_bins).reshape(n_dims, n_bins)
    return out

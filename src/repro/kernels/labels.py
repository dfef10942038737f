"""Key → cluster-label mapping kernels (paper §3, step 5).

Once the partitioning step has produced per-dimension cut locations, each
point's bin index maps to a per-dimension *interval* id (which primary
cluster it falls into along that dimension) — by ``searchsorted``, or by a
gather from a precomputed per-bin table when many points share one cut
set; the tuple of interval ids across dimensions identifies the global
cluster.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.kernels.engine import KernelEngine

__all__ = ["intervals_for_bins", "check_cuts", "interval_id_table"]


def intervals_for_bins(
    bins: np.ndarray,
    cuts: Sequence[np.ndarray],
    engine: Optional[KernelEngine] = None,
) -> np.ndarray:
    """Map (M × N) bin indices to per-dimension interval ids.

    ``cuts[j]`` is the sorted array of cut positions for dimension ``j``:
    a bin ``b`` belongs to interval ``searchsorted(cuts[j], b, 'left')``,
    so a cut at ``c`` separates bins ``<= c`` (left) from bins ``> c``
    (right) and ``len(cuts[j]) + 1`` intervals exist along dimension ``j``.
    """
    bins = np.asarray(bins)
    if bins.ndim != 2:
        raise ValidationError("intervals_for_bins needs a 2-D bins array")
    if len(cuts) != bins.shape[1]:
        raise ValidationError(
            f"need one cut array per dimension: {len(cuts)} != {bins.shape[1]}"
        )
    cut_arrays = [np.asarray(c, dtype=np.int64) for c in cuts]

    def kernel(block: np.ndarray) -> np.ndarray:
        out = np.empty(block.shape, dtype=np.int32)
        for j, c in enumerate(cut_arrays):
            if c.size == 0:
                out[:, j] = 0
            else:
                out[:, j] = np.searchsorted(c, block[:, j], side="left")
        return out

    if engine is None:
        return kernel(bins)
    return engine.map(kernel, bins, out_shape=bins.shape, out_dtype=np.int32)


def check_cuts(
    cuts: Sequence[np.ndarray], n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate per-dimension cut arrays against an ``n_bins`` grid.

    Every dimension's cuts must be strictly increasing within
    ``[0, n_bins - 2]`` (a cut at the last bin separates nothing).
    Returns all cuts concatenated, with the dimension of each, so callers
    can work on them as one array.
    """
    arrays = [np.asarray(c, dtype=np.int64).ravel() for c in cuts]
    rows = np.repeat(np.arange(len(arrays)), [c.size for c in arrays])
    flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    bad = (flat < 0) | (flat > n_bins - 2)
    bad[1:] |= (flat[1:] <= flat[:-1]) & (rows[1:] == rows[:-1])
    if bad.any():
        raise ValidationError(
            f"dimension {rows[bad.argmax()]}: cuts must be strictly increasing "
            f"in [0, {n_bins - 2}]"
        )
    return rows, flat


def interval_id_table(cuts: Sequence[np.ndarray], n_bins: int) -> np.ndarray:
    """(N × n_bins) interval id of every bin: the gather form of
    :func:`intervals_for_bins`.

    Row ``j`` holds ``searchsorted(cuts[j], b, 'left')`` for every bin
    ``b``, built as a running count of cut positions: a cut at ``c`` adds
    one from bin ``c + 1`` on. Mapping M bins is then one gather per
    dimension instead of a binary search per bin.
    """
    rows, flat = check_cuts(cuts, n_bins)
    table = np.zeros((len(cuts), n_bins), dtype=np.int64)
    table[rows, flat + 1] = 1
    return np.cumsum(table, axis=1, out=table)

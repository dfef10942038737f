"""The reference ingest chain: the oracle the fused kernels are held to.

Whole-array passes that define what streaming ingest computes, one step
each: project (``project_points``), bin at the deepest depth with
out-of-range accounting (``bin_indices``), derive shallower depths by a
right shift (``prefix_bins``), count per dimension
(``accumulate_histogram``) and fold the deep keys as rows
(``fold_rows``). ``reference_partial_fit`` runs that chain as
``StreamingKeyBin2.partial_fit`` once ran it, adaptive widen-and-retry
included, so a suite can build a reference state and compare it with the
fused path bit for bit.

``pack_keys``/``unpack_keys`` are the int64 packed key of the paper's
"356406"-style example; the library groups cells by cell code instead,
so they live here with their tests.

The float arithmetic of ``bin_indices`` is the library's
:func:`repro.kernels.keys.bin_scale` recipe, which the fused backends use
too: sharing the recipe is what makes bit-identity a fair demand.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.streaming import KeyCounter, StreamingKeyBin2
from repro.errors import ValidationError
from repro.kernels.keys import bin_scale
from repro.util.validation import check_array_2d, check_finite

__all__ = [
    "project_points",
    "bin_indices",
    "bin_indices_at_depths",
    "prefix_bins",
    "accumulate_histogram",
    "pack_keys",
    "unpack_keys",
    "fold_rows",
    "reference_partial_fit",
    "ReferenceKeyBin2",
]

_MAX_PACK_BITS = 63


def project_points(
    x: np.ndarray,
    matrix: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project ``x`` (M × N) through ``matrix`` (N × N_rp) → (M × N_rp)."""
    x = np.asarray(x, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or matrix.ndim != 2:
        raise ValidationError("project_points needs 2-D x and matrix")
    if x.shape[1] != matrix.shape[0]:
        raise ValidationError(
            f"dimension mismatch: x has {x.shape[1]} features, "
            f"matrix expects {matrix.shape[0]}"
        )
    if out is None:
        return x @ matrix
    np.matmul(x, matrix, out=out)
    return out


def bin_indices(
    x: np.ndarray,
    r_min: np.ndarray,
    r_max: np.ndarray,
    depth: int,
    oor_low: Optional[np.ndarray] = None,
    oor_high: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Depth-``depth`` (M × N) int32 bin indices, clipped into the grid.

    ``oor_low``/``oor_high`` are optional (N,) int64 accumulators: the
    number of entries clipped into the bottom/top bin is **added** per
    dimension, counted on the pre-clip indices of the exact binning
    arithmetic (a value that floats to bin ``2^depth`` counts high even
    if it is numerically ``<= r_max``).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("bin_indices needs 2-D input")
    if depth < 1 or depth > 31:
        raise ValidationError(f"depth must be in [1, 31], got {depth}")
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=1))
        raise ValidationError(
            f"bin_indices: input contains non-finite coordinates (NaN/Inf) "
            f"in row(s) {', '.join(str(int(r)) for r in bad[:5])}"
        )
    r_min_v, scale_v = bin_scale(r_min, r_max, depth)
    if r_min_v.shape[0] != x.shape[1]:
        raise ValidationError("r_min/r_max length must match number of dimensions")
    track_oor = oor_low is not None or oor_high is not None
    if track_oor and (oor_low is None or oor_high is None):
        raise ValidationError("pass both oor_low and oor_high, or neither")
    n_bins = 1 << depth
    idx = (x - r_min_v.reshape(1, -1)) * scale_v.reshape(1, -1)
    np.floor(idx, out=idx)
    if track_oor:
        oor_low[...] += (idx < 0).sum(axis=0)
        oor_high[...] += (idx > n_bins - 1).sum(axis=0)
    np.clip(idx, 0, n_bins - 1, out=idx)
    return idx.astype(np.int32, copy=False)


def prefix_bins(deep_bins: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
    """Bin indices at a shallower depth: a right shift of the deeper ones."""
    if to_depth > from_depth:
        raise ValidationError(
            f"to_depth ({to_depth}) cannot exceed from_depth ({from_depth})"
        )
    if to_depth < 1:
        raise ValidationError(f"to_depth must be >= 1, got {to_depth}")
    return deep_bins >> (from_depth - to_depth)


def bin_indices_at_depths(
    x: np.ndarray,
    r_min: np.ndarray,
    r_max: np.ndarray,
    depths: Sequence[int],
) -> dict[int, np.ndarray]:
    """Bin indices for several depths from one binning at the deepest."""
    depths = sorted(set(int(d) for d in depths))
    if not depths:
        raise ValidationError("depths must be non-empty")
    deepest = depths[-1]
    deep = bin_indices(x, r_min, r_max, deepest)
    return {d: (deep if d == deepest else prefix_bins(deep, deepest, d)) for d in depths}


def accumulate_histogram(
    bins: np.ndarray,
    n_bins: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(N × n_bins) int64 occupancy of (M × N) bin indices.

    ``out`` is an optional accumulator, added to in place.
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


def pack_keys(bins: np.ndarray, depth: int) -> np.ndarray:
    """Concatenate each point's ``depth``-bit bin labels into one int64.

    Needs ``depth * n_dims <= 63`` and every bin in ``[0, 2^depth)``: an
    out-of-range value would bleed into the neighbouring field.
    """
    bins = np.asarray(bins)
    if bins.ndim != 2:
        raise ValidationError("pack_keys needs a 2-D (points × dims) array")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    n_dims = bins.shape[1]
    total_bits = depth * n_dims
    if total_bits > _MAX_PACK_BITS:
        raise ValidationError(
            f"cannot pack {n_dims} dims × {depth} bits = {total_bits} bits "
            f"into int64 (max {_MAX_PACK_BITS}); reduce depth or dimensions"
        )
    if bins.size:
        if not np.issubdtype(bins.dtype, np.integer):
            raise ValidationError(
                f"pack_keys needs integer bin indices, got dtype {bins.dtype}"
            )
        lo, hi = int(bins.min()), int(bins.max())
        if lo < 0 or hi >= (1 << depth):
            raise ValidationError(
                f"pack_keys: bin values must lie in [0, {1 << depth}) for "
                f"depth {depth}, got range [{lo}, {hi}] — out-of-range bins "
                "would bleed bits into neighboring key fields"
            )
    keys = np.zeros(bins.shape[0], dtype=np.int64)
    for j in range(n_dims):
        keys <<= depth
        keys |= bins[:, j].astype(np.int64)
    return keys


def unpack_keys(keys: np.ndarray, depth: int, n_dims: int) -> np.ndarray:
    """Inverse of :func:`pack_keys`: recover (points × dims) bin indices."""
    keys = np.asarray(keys, dtype=np.int64)
    if depth * n_dims > _MAX_PACK_BITS:
        raise ValidationError("depth * n_dims exceeds the int64 packing budget")
    mask = (1 << depth) - 1
    out = np.empty((keys.shape[0], n_dims), dtype=np.int32)
    for j in range(n_dims - 1, -1, -1):
        out[:, j] = (keys & mask).astype(np.int32)
        keys = keys >> depth
    return out


def fold_rows(counter: KeyCounter, rows: np.ndarray) -> KeyCounter:
    """Count the unique rows of an (M × D) uint8 key array into ``counter``."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValidationError("fold_rows needs a 2-D array")
    counter._check_width(rows.shape[1])
    if rows.shape[0]:
        uniq, counts = np.unique(counter._encode_rows(rows), return_counts=True)
        counter._fold(uniq, counts.astype(np.int64, copy=False))
    return counter


def reference_partial_fit(skb: StreamingKeyBin2, x: np.ndarray) -> StreamingKeyBin2:
    """``skb.partial_fit(x)`` through the reference chain, one projection
    at a time.

    Adaptive mode widens the grid over the projected batch's extremes
    before binning, so at most the float boundary case (a value at
    ``r_max`` that floors to bin ``2^depth``) widens again and re-bins.
    """
    x = check_array_2d(x, "X")
    check_finite(x, "X")
    if skb._states is None:
        skb._initialize(x)
    if x.shape[1] != skb.n_features_in_:
        raise ValidationError(
            f"batch has {x.shape[1]} features, stream started with "
            f"{skb.n_features_in_}"
        )
    deepest = skb.candidate_depths[-1]
    for idx, state in enumerate(skb._states):
        projected = x if state.matrix is None else project_points(x, state.matrix)
        if skb.adaptive:
            lo, hi = projected.min(axis=0), projected.max(axis=0)
            state.observe(lo, hi)
            if state.rebin_to(state.target_levels()):
                skb._note_rebin(idx)
        while True:
            oor_low = np.zeros(state.space.n_dims, dtype=np.int64)
            oor_high = np.zeros(state.space.n_dims, dtype=np.int64)
            deep = bin_indices(
                projected, state.space.r_min, state.space.r_max, deepest,
                oor_low=oor_low, oor_high=oor_high,
            )
            oor_dims = (oor_low > 0) | (oor_high > 0)
            if oor_dims.any():
                state.oor_low += oor_low
                state.oor_high += oor_high
                skb._note_out_of_range(idx, oor_low, oor_high)
            if not skb.adaptive or not oor_dims.any():
                break
            target = np.maximum(
                state.target_levels(), state.levels + oor_dims.astype(np.int64)
            )
            if state.rebin_to(target):
                skb._note_rebin(idx)
        for d in state.depths:
            b = deep if d == deepest else prefix_bins(deep, deepest, d)
            accumulate_histogram(b, 1 << d, out=state.hist[d])
            accumulate_histogram(b, 1 << d, out=state.hist_delta[d])
        deep_u8 = deep.astype(np.uint8)
        for table in state.key_tables():
            fold_rows(table, deep_u8)
        state.n_points += x.shape[0]
        if state.drift is not None:
            batch_hist = accumulate_histogram(deep, 1 << deepest)
            skb._feed_drift(idx, state, batch_hist, x.shape[0])
    skb.n_seen_ += x.shape[0]
    skb.n_seen_delta_ += x.shape[0]
    skb.n_own_ += x.shape[0]
    return skb


class ReferenceKeyBin2(StreamingKeyBin2):
    """A ``StreamingKeyBin2`` whose ``partial_fit`` is
    :func:`reference_partial_fit`, for suites run on both ingest paths."""

    def partial_fit(self, x: np.ndarray) -> "ReferenceKeyBin2":
        return reference_partial_fit(self, x)

"""Hierarchical key/bin kernels (paper §3, step 2).

A point's coordinate in dimension ``j`` is assigned, at depth ``d``, to one
of ``2^d`` equal-width bins over the fixed range ``[r_min, r_max]``. The
*key* of the point concatenates its deepest bin labels across dimensions.
The bin hierarchy is a bit-prefix structure: the depth-``d`` bin of a point
is its depth-``d_max`` bin shifted right by ``d_max - d`` bits, so only the
deepest binning ever needs computing (:func:`prefix_bins` recovers the
rest for free).

Keys across dimensions are packed into a single ``int64`` per point
(:func:`pack_keys`) when the total bit budget fits — the packed key is what
gets grouped to form clusters — with a bytes-view fallback for extreme
depth × dimensionality combinations.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "bin_scale",
    "bin_indices",
    "bin_indices_at_depths",
    "prefix_bins",
    "pack_keys",
    "unpack_keys",
]

_MAX_PACK_BITS = 63
#: Deepest depth :func:`bin_scale` accepts.
_MAX_DEPTH = 62


def bin_scale(
    r_min: np.ndarray, r_max: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the ``(r_min, scale)`` pair the binning arithmetic uses.

    Shared by the reference kernel (:func:`bin_indices`) and the fused
    backends (:mod:`repro.kernels.fused`): both compute
    ``floor((x - r_min) * scale)`` then clip, so deriving the scale in one
    place is what keeps the two paths bit-identical.

    Returns 1-D float64 ``(r_min, scale)`` vectors. A dimension whose span
    is so small that ``2^62 / span`` overflows is effectively constant and
    gets scale 0 (all values map into bin 0) instead of propagating
    inf/nan. The test uses the largest depth, not ``depth``, so the rule is
    the same at every depth: a span that collapsed at one depth but not at
    another would break the prefix property (``prefix_bins`` of the deep
    bins equal the shallow bins) the fused path relies on.
    """
    if depth < 1 or depth > _MAX_DEPTH:
        raise ValidationError(f"depth must be in [1, {_MAX_DEPTH}], got {depth}")
    r_min = np.asarray(r_min, dtype=np.float64).ravel()
    r_max = np.asarray(r_max, dtype=np.float64).ravel()
    if r_min.shape != r_max.shape:
        raise ValidationError("r_min and r_max must have the same length")
    bad = ~(np.isfinite(r_min) & np.isfinite(r_max))
    if bad.any():
        # A NaN/inf bound would survive the span check below as a NaN
        # scale, and floor(NaN·x) casts to garbage bin indices — name the
        # offending dimensions instead of corrupting every key downstream.
        dims = np.flatnonzero(bad)
        head = ", ".join(str(int(d)) for d in dims[:5])
        more = "" if dims.size <= 5 else f", … ({dims.size} dims total)"
        raise ValidationError(
            f"bin_scale: non-finite binning range in dimension(s) {head}"
            f"{more} (r_min/r_max must be finite; got "
            f"r_min[{int(dims[0])}]={r_min[dims[0]]!r}, "
            f"r_max[{int(dims[0])}]={r_max[dims[0]]!r})"
        )
    span = r_max - r_min
    if np.any(span <= 0):
        raise ValidationError("r_max must be strictly greater than r_min per dimension")
    with np.errstate(over="ignore"):
        scale = (1 << depth) / span
        scale[~np.isfinite(float(1 << _MAX_DEPTH) / span)] = 0.0
    return r_min, scale


def _reject_non_finite(x: np.ndarray, where: str) -> None:
    """Raise a row-addressed ValidationError when ``x`` has NaN/Inf entries.

    A NaN survives ``np.clip`` and its cast to an integer dtype is
    undefined — historically this silently corrupted histograms and keys,
    so every binning entry point rejects non-finite rows up front.
    """
    finite = np.isfinite(x)
    if finite.all():
        return
    bad = np.flatnonzero(~finite.all(axis=1))
    head = ", ".join(str(int(r)) for r in bad[:5])
    more = "" if bad.size <= 5 else f", … ({bad.size} rows total)"
    raise ValidationError(
        f"{where}: input contains non-finite coordinates (NaN/Inf) in "
        f"row(s) {head}{more}; filter or clean these rows before binning"
    )


def bin_indices(
    x: np.ndarray,
    r_min: np.ndarray,
    r_max: np.ndarray,
    depth: int,
    out: Optional[np.ndarray] = None,
    oor_low: Optional[np.ndarray] = None,
    oor_high: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Depth-``depth`` bin index of every (point, dimension) entry.

    Parameters
    ----------
    x:
        (M × N) coordinates.
    r_min, r_max:
        Per-dimension range vectors (length N). Values outside the range
        are clipped into the boundary bins — the streaming case where a
        late point exceeds the initially observed range.
    depth:
        Bin tree depth; produces ``2^depth`` bins.
    oor_low, oor_high:
        Optional (N,) int64 accumulators. When given, the number of
        entries clipped into the bottom/top boundary bin is **added** per
        dimension — the out-of-range accounting that makes edge-bin
        saturation observable instead of silent. Counting happens on the
        pre-clip indices of the exact binning arithmetic (so a value that
        floats to bin ``2^depth`` counts high even if it is numerically
        ``<= r_max``).

    Returns
    -------
    (M × N) ``int32`` array of bin indices in ``[0, 2^depth)``.

    Raises
    ------
    ValidationError
        If any row of ``x`` contains a non-finite value: NaN survives
        ``np.clip`` and its cast to int32 is undefined, so garbage indices
        would silently corrupt histograms and keys downstream.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("bin_indices needs 2-D input")
    if depth < 1 or depth > 31:
        raise ValidationError(f"depth must be in [1, 31], got {depth}")
    _reject_non_finite(x, "bin_indices")
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
    result = idx.astype(np.int32, copy=False)
    if out is not None:
        out[...] = result
        return out
    return result


def prefix_bins(deep_bins: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
    """Bin indices at a shallower depth from the deepest binning.

    Depth-``to_depth`` bins are the high-order bits of depth-``from_depth``
    bins, so this is a single right shift — the hierarchical-key property.
    """
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
    """Bin indices for several depths with one binning pass.

    Computes the deepest requested binning, then derives shallower depths
    by prefix shifts.
    """
    depths = sorted(set(int(d) for d in depths))
    if not depths:
        raise ValidationError("depths must be non-empty")
    deepest = depths[-1]
    deep = bin_indices(x, r_min, r_max, deepest)
    return {d: (deep if d == deepest else prefix_bins(deep, deepest, d)) for d in depths}


def pack_keys(bins: np.ndarray, depth: int) -> np.ndarray:
    """Pack per-dimension bin indices into one integer key per point.

    The key is the concatenation of ``depth``-bit bin labels across
    dimensions (paper's "356406"-style key, in binary). Requires
    ``depth * n_dims <= 63``; callers with a larger budget should pack the
    per-dimension *interval* labels instead (they are far fewer).

    Every bin value must lie in ``[0, 2^depth)``: an out-of-range value
    would bleed bits into the neighboring dimension's field of the key,
    producing a wrong-but-plausible cluster key, so the range is validated
    instead of silently masked.
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

"""Hierarchical bin kernels (paper §3, step 2).

A point's coordinate in dimension ``j`` is assigned, at depth ``d``, to one
of ``2^d`` equal-width bins over the fixed range ``[r_min, r_max]``. The
bin hierarchy is a bit-prefix structure: the depth-``d`` bin of a point
is its depth-``d_max`` bin shifted right by ``d_max - d`` bits, so only
the deepest binning ever needs computing. The fused kernels
(:mod:`repro.kernels.fused`) bin every fit and stream this way;
:func:`bin_indices` is the one-array form ``predict`` uses. Clusters are
formed by grouping points on their cell codes
(:class:`repro.core.primary.PrimaryPartition`), not on the deep bins.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["bin_scale", "bin_indices"]

#: Deepest depth :func:`bin_scale` accepts.
_MAX_DEPTH = 62


def bin_scale(
    r_min: np.ndarray, r_max: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the ``(r_min, scale)`` pair the binning arithmetic uses.

    Shared by :func:`bin_indices` and the fused
    backends (:mod:`repro.kernels.fused`): both compute
    ``floor((x - r_min) * scale)`` then clip, so deriving the scale in one
    place is what keeps the two paths bit-identical.

    Returns 1-D float64 ``(r_min, scale)`` vectors. A dimension whose span
    is so small that ``2^62 / span`` overflows is effectively constant and
    gets scale 0 (all values map into bin 0) instead of propagating
    inf/nan. The test uses the largest depth, not ``depth``, so the rule is
    the same at every depth: a span that collapsed at one depth but not at
    another would break the prefix property (the deep bins shifted right
    equal the shallow bins) the fused path relies on.
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
) -> np.ndarray:
    """Depth-``depth`` bin index of every (point, dimension) entry.

    Parameters
    ----------
    x:
        (M × N) coordinates.
    r_min, r_max:
        Per-dimension range vectors (length N). Values outside the range
        are clipped into the boundary bins.
    depth:
        Bin tree depth; produces ``2^depth`` bins.

    Returns
    -------
    (M × N) ``int32`` array of bin indices in ``[0, 2^depth)``.

    Raises
    ------
    ValidationError
        If any row of ``x`` contains a non-finite value: NaN survives
        ``np.clip`` and its cast to int32 is undefined, so garbage indices
        would silently corrupt cell codes downstream.
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
    idx = (x - r_min_v.reshape(1, -1)) * scale_v.reshape(1, -1)
    np.floor(idx, out=idx)
    np.clip(idx, 0, (1 << depth) - 1, out=idx)
    return idx.astype(np.int32, copy=False)

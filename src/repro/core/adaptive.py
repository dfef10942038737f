"""Adaptive binning ranges: the dyadic widening chain (open-world streams).

Fixed-range binning assumes a known, stationary ``[r_min, r_max]`` per
projected dimension — the main blocker for open-world streams
(ROADMAP "Adaptive streaming bins + drift handling"). This module supplies
the range-widening machinery :class:`~repro.core.streaming.StreamingKeyBin2`
uses in ``adaptive=True`` mode, built around one invariant: **every widened
grid must rebin the old histogram exactly** — each old bin maps onto
exactly one new bin, so rebinning is an integer scatter-add that conserves
total mass bit-for-bit and keeps the delta-merge protocol in
``tests/insitu/`` exact.

The widening chain
------------------

Arbitrary per-rank range growth would break two properties the distributed
pipeline depends on:

* **alignment** — an old bin must never straddle a new bin boundary, or
  rebinning needs fractional mass splitting (inexact, order-dependent);
* **mergeability** — two ranks that widened differently must be able to
  agree on a common grid that both can rebin onto exactly, and the
  agreement must be *associative* (independent of consolidation cadence).

Both hold when grids are restricted to a single totally-ordered chain,
one grid per *level* ``g``, derived from the base range
``[base_min, base_max]`` (span ``s``) by alternately doubling downward and
upward::

    level 0:  [base_min,          base_max        ]   span s
    level 1:  [base_min -  1·s,   base_max        ]   span 2·s
    level 2:  [base_min -  1·s,   base_max +  2·s ]   span 4·s
    level 3:  [base_min -  5·s,   base_max +  2·s ]   span 8·s
    ...

Step ``k`` (1-indexed) extends the span by ``2^(k-1)·s`` — downward when
``k`` is odd, upward when ``k`` is even — so level ``g`` spans exactly
``2^g·s`` and its bottom/top extensions are the data-independent integers
``B(g)``/``T(g)`` of :func:`chain_extents`. Because the chain is totally
ordered, merging two ranks' grids is ``max(level)`` per dimension —
trivially associative, so the final grid is a pure function of the pooled
observed range, not of when consolidations happened.

Rebin exactness
---------------

At depth ``d`` (``2^d`` bins per dimension), old level ``g`` and new level
``g' >= g``: the new bin width is ``2^(g'-g)`` old widths, and the old
origin sits ``(B(g') - B(g))·s`` above the new origin — an offset whose
every term ``2^(k-1)·s`` (odd ``k`` in ``(g, g']``) is a multiple of
``2^g·s``, i.e. of whole old-*grid* spans and hence of old bin widths. Old
bin boundaries therefore align with new bin boundaries, and old bin ``i``
falls entirely inside new bin

    ``i' = (i·2^g + (B(g') - B(g))·2^d) >> g'``

— pure int64 arithmetic (:func:`rebin_maps`), no floats anywhere.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "MAX_LEVEL",
    "chain_extents",
    "grid_bounds",
    "cover_levels",
    "rebin_maps",
]

#: Widening-level cap. Level ``g`` multiplies the base span by ``2^g``:
#: 48 doublings cover ~14 decimal orders of magnitude of range growth —
#: anything past that is a data bug, not drift — while keeping every
#: integer in the rebin map (``<= 2^(MAX_LEVEL + 8)``) safely inside int64.
MAX_LEVEL = 48

# B(g)/T(g): bottom/top extension of level g, in base-span units.
# Step k adds 2^(k-1) — downward (B) when k is odd, upward (T) when even.
_B_TABLE = np.zeros(MAX_LEVEL + 1, dtype=np.int64)
_T_TABLE = np.zeros(MAX_LEVEL + 1, dtype=np.int64)
for _k in range(1, MAX_LEVEL + 1):
    _B_TABLE[_k] = _B_TABLE[_k - 1] + ((1 << (_k - 1)) if _k % 2 else 0)
    _T_TABLE[_k] = _T_TABLE[_k - 1] + (0 if _k % 2 else (1 << (_k - 1)))
del _k


def _as_levels(levels: np.ndarray) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.int64).ravel()
    if levels.size and (levels.min() < 0 or levels.max() > MAX_LEVEL):
        raise ValidationError(
            f"widening levels must lie in [0, {MAX_LEVEL}], got range "
            f"[{levels.min()}, {levels.max()}]"
        )
    return levels


def chain_extents(levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(B, T)`` extensions of each level, in base-span units.

    ``B + T + 1 == 2^level`` by construction: level ``g`` spans ``2^g``
    base spans, one of which is the base itself.
    """
    levels = _as_levels(levels)
    return _B_TABLE[levels], _T_TABLE[levels]


def grid_bounds(
    base_min: np.ndarray, base_max: np.ndarray, levels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Float bounds ``[r_min(g), r_max(g)]`` of the level-``g`` chain grid.

    Every rank computes these with the identical float expression
    ``base ∓ extent·span``, so ranks that agree on levels agree on bounds
    bit-for-bit — the property distributed grid agreement rests on.
    """
    base_min = np.asarray(base_min, dtype=np.float64).ravel()
    base_max = np.asarray(base_max, dtype=np.float64).ravel()
    bottom, top = chain_extents(levels)
    if base_min.shape != base_max.shape or base_min.shape != bottom.shape:
        raise ValidationError("base bounds and levels must have equal length")
    span = base_max - base_min
    r_min = base_min - bottom.astype(np.float64) * span
    r_max = base_max + top.astype(np.float64) * span
    if not (np.all(np.isfinite(r_min)) and np.all(np.isfinite(r_max))):
        raise ValidationError(
            "chain grid bounds overflowed float64; the widening level cap "
            "should make this unreachable for sane base ranges"
        )
    return r_min, r_max


def cover_levels(
    base_min: np.ndarray,
    base_max: np.ndarray,
    need_lo: np.ndarray,
    need_hi: np.ndarray,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimal chain level covering ``[need_lo, need_hi]`` per dimension.

    Returns the smallest ``g >= start`` with ``r_min(g) <= need_lo`` and
    ``r_max(g) >= need_hi``. Deterministic float comparisons only, so every
    rank maps the same pooled need to the same levels. Raises when even
    :data:`MAX_LEVEL` cannot cover the need (range grew ~2^48-fold —
    report the data problem instead of silently saturating).
    """
    base_min = np.asarray(base_min, dtype=np.float64).ravel()
    base_max = np.asarray(base_max, dtype=np.float64).ravel()
    need_lo = np.asarray(need_lo, dtype=np.float64).ravel()
    need_hi = np.asarray(need_hi, dtype=np.float64).ravel()
    n = base_min.shape[0]
    levels = (
        np.zeros(n, dtype=np.int64) if start is None
        else _as_levels(start).copy()
    )
    if not (np.all(np.isfinite(need_lo)) and np.all(np.isfinite(need_hi))):
        raise ValidationError("cover_levels needs finite need bounds")
    for _ in range(MAX_LEVEL + 1):
        r_min, r_max = grid_bounds(base_min, base_max, levels)
        uncovered = (need_lo < r_min) | (need_hi > r_max)
        if not uncovered.any():
            return levels
        if np.any(levels[uncovered] >= MAX_LEVEL):
            bad = int(np.flatnonzero(uncovered & (levels >= MAX_LEVEL))[0])
            raise ValidationError(
                f"dimension {bad}: observed range [{need_lo[bad]}, "
                f"{need_hi[bad]}] exceeds the level-{MAX_LEVEL} chain grid "
                f"(base [{base_min[bad]}, {base_max[bad]}]); this is a "
                "~2^48-fold range explosion — clean the stream"
            )
        levels[uncovered] += 1
    raise ValidationError("cover_levels failed to converge")  # pragma: no cover


def rebin_maps(
    old_levels: np.ndarray, new_levels: np.ndarray, depth: int
) -> np.ndarray:
    """Exact old-bin → new-bin index map per dimension, ``(n_dims, 2^depth)``.

    ``maps[j, i]`` is the depth-``depth`` bin on the level-``new`` grid
    that entirely contains bin ``i`` of the level-``old`` grid of
    dimension ``j`` — the alignment argument in the module docstring. All
    int64; rebinning a histogram is ``np.add.at(new[j], maps[j], old[j])``
    and conserves mass exactly.
    """
    old_levels = _as_levels(old_levels)
    new_levels = _as_levels(new_levels)
    if old_levels.shape != new_levels.shape:
        raise ValidationError("old and new levels must have equal length")
    if np.any(new_levels < old_levels):
        raise ValidationError(
            "the widening chain only grows; new levels must be >= old"
        )
    if depth < 1 or depth > 8:
        raise ValidationError(f"depth must be in [1, 8], got {depth}")
    n_bins = 1 << depth
    i = np.arange(n_bins, dtype=np.int64)
    offset = (_B_TABLE[new_levels] - _B_TABLE[old_levels]) * n_bins
    maps = (
        (i[None, :] << old_levels[:, None]) + offset[:, None]
    ) >> new_levels[:, None]
    # The alignment proof guarantees this; assert it anyway — a wrong map
    # would silently corrupt every downstream histogram.
    if maps.size and (maps.min() < 0 or maps.max() >= n_bins):
        raise ValidationError("rebin map escaped [0, n_bins); chain invariant broken")
    return maps


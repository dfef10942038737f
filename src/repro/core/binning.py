"""Space ranges for binning (paper §3, step 2).

Binning happens over a *predetermined* range ``[r_min, r_max]`` per
dimension. In batch mode the range is measured from the data (with a safety
margin for points near the boundary); in distributed mode per-rank ranges
are merged with an elementwise min/max allreduce; in streaming mode the
first batch seeds the range and later out-of-range values clip into the
boundary bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.util.validation import check_array_2d, check_finite

__all__ = ["SpaceRange"]

#: Width given to a dimension whose observed span is zero (constant value);
#: keeps bin arithmetic finite and puts the constant in a middle bin.
_DEGENERATE_HALF_WIDTH = 0.5


@dataclass(frozen=True)
class SpaceRange:
    """Per-dimension binning range ``[r_min, r_max]``.

    Immutable; merging and expansion return new instances so fitted models
    can safely share ranges.
    """

    r_min: np.ndarray
    r_max: np.ndarray

    def __post_init__(self) -> None:
        r_min = np.asarray(self.r_min, dtype=np.float64).ravel()
        r_max = np.asarray(self.r_max, dtype=np.float64).ravel()
        if r_min.shape != r_max.shape:
            raise ValidationError("r_min and r_max must have the same length")
        if r_min.size == 0:
            raise ValidationError("SpaceRange needs at least one dimension")
        if not (np.all(np.isfinite(r_min)) and np.all(np.isfinite(r_max))):
            raise ValidationError("SpaceRange bounds must be finite")
        if np.any(r_max <= r_min):
            raise ValidationError("r_max must be strictly greater than r_min")
        object.__setattr__(self, "r_min", r_min)
        object.__setattr__(self, "r_max", r_max)

    @property
    def n_dims(self) -> int:
        return int(self.r_min.shape[0])

    @property
    def span(self) -> np.ndarray:
        return self.r_max - self.r_min

    @classmethod
    def from_data(cls, x: np.ndarray, margin: float = 0.05) -> "SpaceRange":
        """Measure the range of ``x`` (M × N), widened by ``margin`` per side.

        The margin keeps boundary points out of the extreme bins so a
        slightly wider later batch (streaming) does not saturate them.
        Zero-span (constant) dimensions get a unit-width window centred on
        the constant.
        """
        x = check_array_2d(x, "x")
        check_finite(x, "x")
        if margin < 0:
            raise ValidationError(f"margin must be >= 0, got {margin}")
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        span = hi - lo
        degenerate = span == 0
        pad = np.where(degenerate, _DEGENERATE_HALF_WIDTH, span * margin)
        return cls(lo - pad, hi + pad)

    def merge(self, other: "SpaceRange") -> "SpaceRange":
        """Elementwise union of two ranges (the distributed min/max reduce)."""
        if other.n_dims != self.n_dims:
            raise ValidationError(
                f"cannot merge ranges with {self.n_dims} and {other.n_dims} dims"
            )
        return SpaceRange(
            np.minimum(self.r_min, other.r_min),
            np.maximum(self.r_max, other.r_max),
        )

    def expand(self, factor: float) -> "SpaceRange":
        """Symmetrically widen every dimension by ``factor`` of its span."""
        if factor < 0:
            raise ValidationError(f"factor must be >= 0, got {factor}")
        pad = self.span * factor
        return SpaceRange(self.r_min - pad, self.r_max + pad)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of ``x`` lying fully inside the range."""
        x = np.asarray(x, dtype=np.float64)
        return np.all((x >= self.r_min) & (x <= self.r_max), axis=1)

    def to_array(self) -> np.ndarray:
        """(2 × N) stacked bounds — the wire format for allreduce merging."""
        return np.stack([self.r_min, self.r_max])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SpaceRange":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != 2:
            raise ValidationError("expected a (2 × N) bounds array")
        return cls(arr[0], arr[1])

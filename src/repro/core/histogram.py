"""Binning histograms (paper §3, steps 2–3).

A :class:`HistogramSet` holds, for each requested depth ``d``, an
``(n_dims × 2^d)`` table of bin counts. It is the *entire* state that ever
leaves a data site: histogram sets merge by addition (associative and
commutative, so any reduction topology — master/worker, ring, tree — gives
the same result), and they flatten to a single int64 buffer for
zero-copy collectives.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.binning import SpaceRange
from repro.errors import ValidationError
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.keys import bin_indices_at_depths

__all__ = ["HistogramSet"]


class HistogramSet:
    """Per-dimension, per-depth bin-count tables.

    Parameters
    ----------
    n_dims:
        Number of (projected) dimensions.
    depths:
        Bin-tree depths to maintain; depth ``d`` has ``2^d`` bins. The paper
        keeps several depths because bin width is the accuracy/robustness
        trade-off (§3.2) and the bootstrap picks the best one.
    """

    def __init__(self, n_dims: int, depths: Sequence[int]):
        if n_dims < 1:
            raise ValidationError(f"n_dims must be >= 1, got {n_dims}")
        depths = sorted(set(int(d) for d in depths))
        if not depths:
            raise ValidationError("depths must be non-empty")
        if depths[0] < 1 or depths[-1] > 31:
            raise ValidationError(f"depths must lie in [1, 31], got {depths}")
        self.n_dims = int(n_dims)
        self.depths: Tuple[int, ...] = tuple(depths)
        self.counts: Dict[int, np.ndarray] = {
            d: np.zeros((n_dims, 1 << d), dtype=np.int64) for d in depths
        }

    # -- construction -------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        x_projected: np.ndarray,
        space: SpaceRange,
        depths: Sequence[int],
    ) -> "HistogramSet":
        """Bin projected points at every depth and accumulate the counts."""
        hist = cls(x_projected.shape[1], depths)
        hist.update(x_projected, space)
        return hist

    def update(self, x_projected: np.ndarray, space: SpaceRange) -> "HistogramSet":
        """Accumulate a batch of projected points (streaming entry point)."""
        x_projected = np.asarray(x_projected, dtype=np.float64)
        if x_projected.ndim != 2 or x_projected.shape[1] != self.n_dims:
            raise ValidationError(
                f"expected (M × {self.n_dims}) points, got {x_projected.shape}"
            )
        if space.n_dims != self.n_dims:
            raise ValidationError("space range dimensionality mismatch")
        if x_projected.shape[0] == 0:
            return self
        bins = bin_indices_at_depths(x_projected, space.r_min, space.r_max, self.depths)
        for d, b in bins.items():
            accumulate_histogram(b, 1 << d, out=self.counts[d])
        return self

    def add_counts(self, depth: int, counts: np.ndarray) -> "HistogramSet":
        """Accumulate raw counts (e.g. received from a peer) at one depth."""
        counts = np.asarray(counts, dtype=np.int64)
        if depth not in self.counts:
            raise ValidationError(f"depth {depth} not tracked by this set")
        if counts.shape != self.counts[depth].shape:
            raise ValidationError(
                f"counts shape {counts.shape} != {self.counts[depth].shape}"
            )
        if np.any(counts < 0):
            raise ValidationError("histogram counts must be non-negative")
        self.counts[depth] += counts
        return self

    # -- algebra -------------------------------------------------------------

    def merge(self, other: "HistogramSet") -> "HistogramSet":
        """In-place elementwise addition of another compatible set."""
        if not isinstance(other, HistogramSet):
            raise ValidationError("can only merge another HistogramSet")
        if other.n_dims != self.n_dims or other.depths != self.depths:
            raise ValidationError(
                "histogram sets must have identical dims and depths to merge"
            )
        for d in self.depths:
            self.counts[d] += other.counts[d]
        return self

    def __add__(self, other: "HistogramSet") -> "HistogramSet":
        out = self.copy()
        return out.merge(other)

    def copy(self) -> "HistogramSet":
        out = HistogramSet(self.n_dims, self.depths)
        for d in self.depths:
            out.counts[d] = self.counts[d].copy()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramSet):
            return NotImplemented
        return (
            self.n_dims == other.n_dims
            and self.depths == other.depths
            and all(np.array_equal(self.counts[d], other.counts[d]) for d in self.depths)
        )

    # -- queries --------------------------------------------------------------

    def total_count(self, depth: Optional[int] = None) -> int:
        """Number of points accumulated (identical across depths)."""
        d = self.depths[0] if depth is None else depth
        return int(self.counts[d][0].sum())

    def density(self, depth: int) -> np.ndarray:
        """Normalized (n_dims × 2^depth) float densities; zeros if empty."""
        c = self.counts[depth]
        total = c.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            dens = np.where(total > 0, c / np.maximum(total, 1), 0.0)
        return dens

    def nbytes(self) -> int:
        """Wire size — what one rank ships per consolidation round."""
        return int(sum(c.nbytes for c in self.counts.values()))

    # -- wire format ------------------------------------------------------------

    def to_buffer(self) -> np.ndarray:
        """Flatten all depth tables into one int64 vector (for allreduce)."""
        return np.concatenate([self.counts[d].ravel() for d in self.depths])

    @classmethod
    def buffer_length(cls, n_dims: int, depths: Sequence[int]) -> int:
        depths = sorted(set(int(d) for d in depths))
        return int(sum(n_dims * (1 << d) for d in depths))

    @classmethod
    def from_buffer(
        cls, buf: np.ndarray, n_dims: int, depths: Sequence[int]
    ) -> "HistogramSet":
        """Inverse of :meth:`to_buffer`."""
        hist = cls(n_dims, depths)
        buf = np.asarray(buf, dtype=np.int64).ravel()
        expected = cls.buffer_length(n_dims, depths)
        if buf.shape[0] != expected:
            raise ValidationError(
                f"buffer length {buf.shape[0]} != expected {expected}"
            )
        offset = 0
        for d in hist.depths:
            size = n_dims * (1 << d)
            hist.counts[d] = buf[offset : offset + size].reshape(n_dims, 1 << d).copy()
            offset += size
        return hist

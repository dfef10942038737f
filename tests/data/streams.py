"""Open-world stream stressors: test data for adaptive binning and drift.

:class:`RangeGrowthStream` (geometric scale growth — defeats any fixed
range), :class:`MeanShiftStream` (linear covariate shift) and
:class:`RegimeChangeStream` (abrupt regime switch) exercise adaptive
binning and drift detection; :class:`BatchStream` replays a fixed dataset
in batches. No experiment or example streams them, so they live with the
tests that do.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.gaussians import _separated_centers
from repro.errors import ValidationError
from repro.util.rng import SeedLike, as_generator

__all__ = [
    "BatchStream", "MeanShiftStream", "RangeGrowthStream", "RegimeChangeStream",
]


class BatchStream:
    """Replay ``(X, y)`` in fixed-size batches.

    Iterating yields ``(x_batch, y_batch)`` tuples in order; the stream can
    be replayed (each ``__iter__`` starts over).
    """

    def __init__(self, x: np.ndarray, y: Optional[np.ndarray], batch_size: int):
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.x = np.asarray(x)
        self.y = None if y is None else np.asarray(y)
        if self.y is not None and self.y.shape[0] != self.x.shape[0]:
            raise ValidationError("X and y lengths differ")
        self.batch_size = int(batch_size)

    def __len__(self) -> int:
        return -(-self.x.shape[0] // self.batch_size)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        for start in range(0, self.x.shape[0], self.batch_size):
            stop = start + self.batch_size
            yb = None if self.y is None else self.y[start:stop]
            yield self.x[start:stop], yb


class RangeGrowthStream:
    """Gaussian clusters whose *scale* grows geometrically between batches.

    The open-world range stressor: batch ``k`` draws from clusters whose
    centre distances and spreads are multiplied by ``growth**k``, so any
    a-priori binning range is eventually exceeded no matter how generous.
    Exercises the adaptive range-doubling path (every few batches force
    another grid level) and, in fixed-range mode, drives edge-bin
    saturation monotonically upward.
    """

    def __init__(
        self,
        n_batches: int,
        batch_size: int,
        n_dims: int,
        n_clusters: int = 4,
        separation: float = 4.0,
        growth: float = 1.5,
        seed: SeedLike = None,
    ):
        if n_batches < 1 or batch_size < 1:
            raise ValidationError("n_batches and batch_size must be >= 1")
        if growth <= 0:
            raise ValidationError("growth must be > 0")
        self.n_batches = int(n_batches)
        self.batch_size = int(batch_size)
        self.n_dims = int(n_dims)
        self.n_clusters = int(n_clusters)
        self.separation = float(separation)
        self.growth = float(growth)
        self.seed = seed

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = as_generator(self.seed)
        centers = _separated_centers(
            self.n_clusters, self.n_dims, self.separation, rng
        )
        scale = 1.0
        for _ in range(self.n_batches):
            ks = rng.integers(self.n_clusters, size=self.batch_size)
            x = scale * centers[ks] + scale * rng.standard_normal(
                (self.batch_size, self.n_dims)
            )
            yield x, ks.astype(np.int64)
            scale *= self.growth


class MeanShiftStream:
    """Gaussian clusters whose common mean translates linearly per batch.

    The classic covariate-shift stressor: cluster geometry (separations,
    spreads, memberships) is stationary, but the whole distribution walks
    along a fixed random direction by ``shift`` units per batch — drift a
    windowed divergence detector sees as a steadily nonzero score, and a
    range tracker sees as one-sided growth.
    """

    def __init__(
        self,
        n_batches: int,
        batch_size: int,
        n_dims: int,
        n_clusters: int = 4,
        separation: float = 8.0,
        shift: float = 1.0,
        seed: SeedLike = None,
    ):
        if n_batches < 1 or batch_size < 1:
            raise ValidationError("n_batches and batch_size must be >= 1")
        self.n_batches = int(n_batches)
        self.batch_size = int(batch_size)
        self.n_dims = int(n_dims)
        self.n_clusters = int(n_clusters)
        self.separation = float(separation)
        self.shift = float(shift)
        self.seed = seed

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = as_generator(self.seed)
        centers = _separated_centers(
            self.n_clusters, self.n_dims, self.separation, rng
        )
        direction = rng.standard_normal(self.n_dims)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        offset = np.zeros(self.n_dims)
        for _ in range(self.n_batches):
            ks = rng.integers(self.n_clusters, size=self.batch_size)
            x = centers[ks] + offset + rng.standard_normal(
                (self.batch_size, self.n_dims)
            )
            yield x, ks.astype(np.int64)
            offset = offset + direction * self.shift


class RegimeChangeStream:
    """Two stationary cluster regimes with an abrupt switch between them.

    Batches before ``change_at`` draw from one set of clusters, batches
    at or after it from an independently placed set (optionally with a
    different cluster count) — the abrupt concept-drift case a windowed
    detector must flag within one window of the switch. Labels of the
    second regime are offset by the first regime's cluster count so the
    two regimes never share a label.
    """

    def __init__(
        self,
        n_batches: int,
        batch_size: int,
        n_dims: int,
        change_at: int,
        n_clusters: int = 4,
        n_clusters_after: Optional[int] = None,
        separation: float = 8.0,
        seed: SeedLike = None,
    ):
        if n_batches < 1 or batch_size < 1:
            raise ValidationError("n_batches and batch_size must be >= 1")
        if not 0 < change_at < n_batches:
            raise ValidationError(
                f"change_at must fall inside the stream, got {change_at} "
                f"of {n_batches} batches"
            )
        self.n_batches = int(n_batches)
        self.batch_size = int(batch_size)
        self.n_dims = int(n_dims)
        self.change_at = int(change_at)
        self.n_clusters = int(n_clusters)
        self.n_clusters_after = int(
            n_clusters if n_clusters_after is None else n_clusters_after
        )
        self.separation = float(separation)
        self.seed = seed

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = as_generator(self.seed)
        before = _separated_centers(
            self.n_clusters, self.n_dims, self.separation, rng
        )
        after = _separated_centers(
            self.n_clusters_after, self.n_dims, self.separation, rng
        ) + self.separation  # disjoint placement: a genuinely new regime
        for batch_idx in range(self.n_batches):
            if batch_idx < self.change_at:
                centers, base = before, 0
            else:
                centers, base = after, self.n_clusters
            ks = rng.integers(centers.shape[0], size=self.batch_size)
            x = centers[ks] + rng.standard_normal(
                (self.batch_size, self.n_dims)
            )
            yield x, (ks + base).astype(np.int64)

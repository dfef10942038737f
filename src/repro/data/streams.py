"""Stream and distributed-partition generators.

KeyBin2 extrapolates to streams (``M = 1`` batches) and to distributed
datasets (multiple ``D``'s). :class:`BatchStream` replays a dataset in
batches; :class:`DriftingStream` adds slow concept drift to exercise the
streaming range-clipping path; :func:`distributed_partitions` deals a
dataset across ranks either i.i.d. or with skewed cluster ownership (the
hard case for histogram merging).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.chunking import chunk_slices
from repro.util.rng import SeedLike, as_generator

__all__ = [
    "BatchStream",
    "DriftingStream",
    "distributed_partitions",
]

#: Minimum centre distance of a :class:`DriftingStream`'s clusters.
DRIFT_SEPARATION = 8.0


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


class DriftingStream:
    """Gaussian clusters whose centres drift slowly between batches.

    Parameters
    ----------
    n_batches, batch_size, n_dims, n_clusters:
        Stream shape.
    drift:
        Per-batch centre displacement (fraction of the
        :data:`DRIFT_SEPARATION` between cluster centres).
    """

    def __init__(
        self,
        n_batches: int,
        batch_size: int,
        n_dims: int,
        n_clusters: int = 4,
        drift: float = 0.02,
        seed: SeedLike = None,
    ):
        if n_batches < 1 or batch_size < 1:
            raise ValidationError("n_batches and batch_size must be >= 1")
        self.n_batches = int(n_batches)
        self.batch_size = int(batch_size)
        self.n_dims = int(n_dims)
        self.n_clusters = int(n_clusters)
        self.separation = DRIFT_SEPARATION
        self.drift = float(drift)
        self.seed = seed

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = as_generator(self.seed)
        from repro.data.gaussians import _separated_centers

        centers = _separated_centers(self.n_clusters, self.n_dims, self.separation, rng)
        step = self.separation * self.drift
        for _ in range(self.n_batches):
            ks = rng.integers(self.n_clusters, size=self.batch_size)
            x = centers[ks] + rng.standard_normal((self.batch_size, self.n_dims))
            yield x, ks.astype(np.int64)
            centers = centers + rng.standard_normal(centers.shape) * step


def distributed_partitions(
    x: np.ndarray,
    y: Optional[np.ndarray],
    n_ranks: int,
    skew: float = 0.0,
    seed: SeedLike = None,
) -> list:
    """Deal a dataset across ``n_ranks`` sites.

    ``skew = 0`` deals rows round-robin after a shuffle (i.i.d. shards).
    ``skew = 1`` sorts by label first, so each rank sees a biased subset of
    clusters — the regime where naive per-site clustering fails but
    histogram merging still recovers the global structure.

    Returns a list of ``(x_i, y_i)`` tuples (``y_i`` is None when y is None).
    """
    if not (0.0 <= skew <= 1.0):
        raise ValidationError("skew must be in [0, 1]")
    if n_ranks < 1:
        raise ValidationError("n_ranks must be >= 1")
    x = np.asarray(x)
    m = x.shape[0]
    rng = as_generator(seed)
    if skew > 0 and y is not None:
        # Interpolate between shuffled (skew 0) and label-sorted (skew 1)
        # orderings by sorting labels perturbed with noise whose scale
        # shrinks as skew grows.
        y_arr = np.asarray(y, dtype=np.float64)
        spread = float(np.ptp(y_arr)) if m else 1.0
        noise_scale = (1.0 - skew) * max(spread, 1.0) * 2.0
        order = np.argsort(y_arr + rng.standard_normal(m) * noise_scale, kind="stable")
    else:
        order = rng.permutation(m)
    parts = []
    slices = chunk_slices(m, n_ranks)
    for start, stop in slices:
        idx = order[start:stop]
        yi = None if y is None else np.asarray(y)[idx]
        parts.append((x[idx], yi))
    return parts

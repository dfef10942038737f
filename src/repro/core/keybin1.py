"""KeyBin version 1 — the predecessor algorithm (Chen et al., CLUSTER'17).

Kept as an ablation baseline: it demonstrates the three limitations KeyBin2
fixes (§1). Differences from KeyBin2:

* **no random projection** — bins the original dimensions directly, so
  correlated clusters whose 1-D projections overlap cannot be separated;
* **density-threshold partitioning** — a bin belongs to a dense region when
  its count exceeds ``density_threshold`` × the dimension's peak; cuts fall
  midway between dense regions. Not robust when densities are hard to
  estimate (streams, skewed clusters);
* **no bootstrap / model assessment** — the first (only) binning is final.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.binning import SpaceRange
from repro.core.model import KeyBin2Model
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.errors import NotFittedError, ValidationError
from repro.kernels.fused import MAX_POINT_DEPTH, FusedStateSpec, fused_bin_points
from repro.util.validation import check_array_2d, check_finite

__all__ = ["KeyBin1", "threshold_cuts"]


def threshold_cuts(counts: np.ndarray, density_threshold: float = 0.05) -> np.ndarray:
    """KeyBin1's partitioning heuristic.

    Bins with count ≥ ``density_threshold · max(counts)`` are *dense*;
    maximal dense runs are regions, and a cut is placed at the midpoint of
    every gap between consecutive regions.
    """
    counts = np.asarray(counts, dtype=np.float64).ravel()
    if counts.size == 0:
        raise ValidationError("counts must be non-empty")
    if not (0.0 < density_threshold <= 1.0):
        raise ValidationError("density_threshold must be in (0, 1]")
    peak = counts.max()
    if peak <= 0:
        return np.empty(0, dtype=np.int64)
    dense = counts >= density_threshold * peak
    # Region boundaries: starts and ends of dense runs.
    padded = np.concatenate([[False], dense, [False]])
    starts = np.flatnonzero(padded[1:] & ~padded[:-1])
    ends = np.flatnonzero(~padded[1:] & padded[:-1]) - 1
    cuts: List[int] = []
    for i in range(len(starts) - 1):
        gap_lo, gap_hi = ends[i], starts[i + 1]
        cuts.append(int((gap_lo + gap_hi) // 2))
    return np.array(
        [c for c in cuts if 0 <= c < counts.size - 1], dtype=np.int64
    )


class KeyBin1:
    """The original key-based binning clusterer.

    Parameters
    ----------
    depth:
        Fixed bin-tree depth (no depth search), in [1, 16] like
        :class:`~repro.core.estimator.KeyBin2`'s depths.
    density_threshold:
        The partitioning heuristic's knob.
    range_margin:
        Fractional padding of the measured range.

    Attributes (after fit): ``model_``, ``labels_``, ``n_clusters_``.
    """

    def __init__(
        self,
        depth: int = 5,
        density_threshold: float = 0.05,
        range_margin: float = 0.05,
    ):
        if depth < 1 or depth > MAX_POINT_DEPTH:
            raise ValidationError(f"depth must be in [1, {MAX_POINT_DEPTH}]")
        self.depth = int(depth)
        self.density_threshold = float(density_threshold)
        self.range_margin = float(range_margin)
        self.model_: Optional[KeyBin2Model] = None
        self.labels_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "KeyBin1":
        x = check_array_2d(x, "X", min_rows=2)
        check_finite(x, "X")
        m, n = x.shape
        self.n_features_in_ = n
        space = SpaceRange.from_data(x, margin=self.range_margin)
        (points,) = fused_bin_points(
            x, [FusedStateSpec(None, space.r_min, space.r_max, (self.depth,))]
        )
        counts, bins = points.deep, points.rows.T
        cuts = [
            threshold_cuts(counts[j], self.density_threshold) for j in range(n)
        ]
        partition = PrimaryPartition(self.depth, cuts)
        intervals = partition.intervals_for(bins)
        codes = partition.cell_codes(intervals)
        table = GlobalClusterTable.from_points(codes)
        self.labels_ = table.lookup(codes)
        self.model_ = KeyBin2Model(
            projection=None,
            space=space,
            partition=partition,
            kept_dims=np.ones(n, dtype=bool),
            table=table,
            score=float("nan"),  # KeyBin1 performs no model assessment
            depth=self.depth,
            n_points_fit=m,
            meta={"algorithm": "keybin1"},
        )
        self.n_clusters_ = table.n_clusters
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.model_ is None:
            raise NotFittedError("KeyBin1 instance is not fitted; call fit() first")
        return self.model_.predict(x)

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_

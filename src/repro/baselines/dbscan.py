"""DBSCAN with a grid-indexed region query (Ester et al. 1996).

Density-based baseline. The uniform grid with cell side ``eps`` bounds
every ε-neighbourhood query to the 3^N adjacent cells, which is fast in
low dimensions and degrades exactly the way the paper reports for
(PDS)DBSCAN in high dimensions — in 1280-d the grid collapses to one cell
per point, queries approach O(M²), distances concentrate, and the found
clustering collapses to a single cluster.

Labels: ``-1`` marks noise, clusters are ``0..n_clusters-1``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.validation import check_array_2d, check_finite

__all__ = ["DBSCAN", "GridIndex"]

#: Dimensionality above which the grid's 3^N stencil costs more than a
#: brute-force distance scan.
DENSE_DIM_LIMIT = 6

NOISE = -1
_UNVISITED = -2


class GridIndex:
    """Uniform grid over the data with cell side ``eps``.

    ``neighbors(i)`` returns indices within ``eps`` of point ``i`` by
    scanning the 3^N surrounding cells. For dimensionality above
    :data:`DENSE_DIM_LIMIT` the grid would have 3^N neighbour cells per query,
    so the index degrades to brute force — mirroring how real spatial
    indices break down in high dimensions.
    """

    def __init__(self, x: np.ndarray, eps: float):
        if eps <= 0:
            raise ValidationError("eps must be positive")
        self.x = x
        self.eps = float(eps)
        self.brute = x.shape[1] > DENSE_DIM_LIMIT
        if not self.brute:
            self.cells: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
            keys = np.floor(x / eps).astype(np.int64)
            self._keys = keys
            for i in range(x.shape[0]):
                self.cells[tuple(keys[i])].append(i)
            # Precompute the 3^N offset stencil.
            n = x.shape[1]
            grids = np.meshgrid(*([np.array([-1, 0, 1])] * n), indexing="ij")
            self._stencil = np.stack([g.ravel() for g in grids], axis=1)

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of all points within ``eps`` of point ``i`` (incl. itself)."""
        p = self.x[i]
        if self.brute:
            d2 = np.einsum("ij,ij->i", self.x - p, self.x - p)
            return np.flatnonzero(d2 <= self.eps * self.eps)
        base = self._keys[i]
        candidates: List[int] = []
        for off in self._stencil:
            cell = tuple(base + off)
            bucket = self.cells.get(cell)
            if bucket:
                candidates.extend(bucket)
        cand = np.asarray(candidates, dtype=np.int64)
        diff = self.x[cand] - p
        d2 = np.einsum("ij,ij->i", diff, diff)
        return cand[d2 <= self.eps * self.eps]


class DBSCAN:
    """Density-based spatial clustering of applications with noise.

    Parameters
    ----------
    eps:
        Neighbourhood radius.
    min_points:
        Core-point threshold (neighbourhood size including the point).
    max_points:
        Safety valve: refuse inputs larger than this (the paper notes
        PDSDBSCAN "could not handle more than 100,000 points" in their
        dimension-scaling runs; the cap makes that failure mode explicit
        instead of thrashing). ``None`` disables.

    Attributes (after fit): ``labels_``, ``n_clusters_``,
    ``core_sample_mask_``.
    """

    def __init__(
        self,
        eps: float,
        min_points: int = 5,
        max_points: Optional[int] = None,
    ):
        if eps <= 0:
            raise ValidationError("eps must be positive")
        if min_points < 1:
            raise ValidationError("min_points must be >= 1")
        self.eps = float(eps)
        self.min_points = int(min_points)
        self.max_points = max_points
        self.labels_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "DBSCAN":
        x = check_array_2d(x, "X")
        check_finite(x, "X")
        m = x.shape[0]
        if self.max_points is not None and m > self.max_points:
            raise ValidationError(
                f"DBSCAN refusing {m} points (max_points={self.max_points}): "
                "neighbourhood queries would be prohibitively expensive"
            )
        index = GridIndex(x, self.eps)
        labels = np.full(m, _UNVISITED, dtype=np.int64)
        core = np.zeros(m, dtype=bool)
        cluster = 0
        for i in range(m):
            if labels[i] != _UNVISITED:
                continue
            neigh = index.neighbors(i)
            if neigh.size < self.min_points:
                labels[i] = NOISE
                continue
            core[i] = True
            labels[i] = cluster
            queue = deque(int(j) for j in neigh if labels[j] in (_UNVISITED, NOISE))
            while queue:
                j = queue.popleft()
                if labels[j] == NOISE:
                    labels[j] = cluster  # border point adopted by cluster
                    continue
                if labels[j] != _UNVISITED:
                    continue
                labels[j] = cluster
                j_neigh = index.neighbors(j)
                if j_neigh.size >= self.min_points:
                    core[j] = True
                    queue.extend(
                        int(q) for q in j_neigh if labels[q] in (_UNVISITED, NOISE)
                    )
            cluster += 1
        self.labels_ = labels
        self.core_sample_mask_ = core
        self.n_clusters_ = cluster
        return self

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_

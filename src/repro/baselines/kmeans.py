"""k-means++ (Lloyd's algorithm with D² seeding).

The paper's strongest accuracy baseline on spherical clusters. Unlike
KeyBin2 it requires the true ``k`` and computes point–centroid distances
every iteration — O(M·k·N) per sweep, the cost KeyBin2 avoids.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import NotFittedError, ValidationError
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_array_2d, check_finite

__all__ = ["kmeans_plus_plus_init", "KMeans", "lloyd_iteration"]

#: Lloyd iterations stop once inertia improves by less than this fraction.
TOL = 1e-4


def kmeans_plus_plus_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """D²-weighted seeding (Arthur & Vassilvitskii 2007).

    The first centre is uniform; each subsequent centre is drawn with
    probability proportional to the squared distance to the nearest centre
    chosen so far.
    """
    m = x.shape[0]
    if k > m:
        raise ValidationError(f"k={k} exceeds number of points {m}")
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(m)]
    # Squared distance to the nearest chosen centre, updated incrementally.
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with chosen centres; duplicate.
            centers[i:] = centers[0]
            break
        probs = d2 / total
        centers[i] = x[rng.choice(m, p=probs)]
        np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1), out=d2)
    return centers


def _assign(x: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centre labels and squared distances.

    Uses the ``|x−c|² = |x|² − 2·x·c + |c|²`` expansion: one GEMM instead
    of a broadcasted (M × k × N) intermediate.
    """
    x_sq = np.einsum("ij,ij->i", x, x)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    cross = x @ centers.T
    d2 = x_sq[:, None] - 2.0 * cross + c_sq[None, :]
    np.maximum(d2, 0.0, out=d2)  # clamp numerical negatives
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(x.shape[0]), labels]


def lloyd_iteration(
    x: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One Lloyd sweep: assign, then per-cluster sums/counts and inertia.

    Returns ``(labels, sums, counts, inertia)`` — sums/counts rather than
    means so the distributed variant can allreduce them.
    """
    k = centers.shape[0]
    labels, d2 = _assign(x, centers)
    sums = np.zeros_like(centers)
    np.add.at(sums, labels, x)
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    return labels, sums, counts, float(d2.sum())


class KMeans:
    """k-means++ clusterer.

    Parameters
    ----------
    n_clusters:
        The fixed ``k`` (ground truth is supplied in the paper's runs).
    n_init:
        Independent restarts; the lowest-inertia run wins.
    max_iter:
        Lloyd iteration cap; iterations also stop once inertia improves
        by less than :data:`TOL` (relative).
    seed:
        Reproducibility.

    Attributes (after fit): ``cluster_centers_``, ``labels_``, ``inertia_``,
    ``n_iter_``.
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 3,
        max_iter: int = 100,
        seed: SeedLike = None,
    ):
        if n_clusters < 1:
            raise ValidationError("n_clusters must be >= 1")
        if n_init < 1 or max_iter < 1:
            raise ValidationError("n_init and max_iter must be >= 1")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = TOL
        self.seed = seed
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "KMeans":
        x = check_array_2d(x, "X", min_rows=self.n_clusters)
        check_finite(x, "X")
        rng = as_generator(self.seed)
        best_inertia = np.inf
        for _ in range(self.n_init):
            centers, labels, inertia, n_iter = self._single_run(x, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                self.cluster_centers_ = centers
                self.labels_ = labels
                self.n_iter_ = n_iter
        self.inertia_ = float(best_inertia)
        return self

    def _single_run(self, x, rng):
        centers = kmeans_plus_plus_init(x, self.n_clusters, rng)
        prev_inertia = np.inf
        labels = np.zeros(x.shape[0], dtype=np.int64)
        for it in range(1, self.max_iter + 1):
            labels, sums, counts, inertia = lloyd_iteration(x, centers)
            empty = counts == 0
            if empty.any():
                # Re-seed empty clusters at the points farthest from their
                # centres (standard k-means empty-cluster repair).
                _, d2 = _assign(x, centers)
                far = np.argsort(d2)[::-1][: int(empty.sum())]
                sums[empty] = x[far]
                counts[empty] = 1
            centers = sums / counts[:, None]
            if prev_inertia - inertia <= self.tol * max(prev_inertia, 1e-12):
                break
            prev_inertia = inertia
        return centers, labels, inertia, it

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans is not fitted")
        x = check_array_2d(x, "X")
        labels, _ = _assign(x, self.cluster_centers_)
        return labels.astype(np.int64)

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_.astype(np.int64)

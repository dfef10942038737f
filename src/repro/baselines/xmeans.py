"""X-means: k-means with BIC-driven selection of k (Pelleg & Moore 2000).

Discussed in the paper's related work as the standard fix for k-means'
fixed-k limitation. Starting from ``k_min`` centres, every cluster is
tentatively split in two; the split is kept when the Bayesian Information
Criterion of the two-centre model beats the one-centre model. Iterates
until no split survives or ``k_max`` is reached.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.kmeans import KMeans, lloyd_iteration
from repro.errors import ValidationError
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_array_2d, check_finite

__all__ = ["XMeans", "bic_score"]

#: Smallest k the search starts from, and the restarts and Lloyd
#: iterations of every inner k-means run.
K_MIN = 1
N_INIT = 2
MAX_ITER = 50


def bic_score(x: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    """BIC of a spherical-Gaussian k-means model (Pelleg & Moore eq. 2).

    Higher is better. Uses the maximum-likelihood pooled variance estimate
    over all clusters.
    """
    m, n = x.shape
    k = centers.shape[0]
    if m <= k:
        return -np.inf
    # Pooled ML variance.
    d2 = np.sum((x - centers[labels]) ** 2)
    variance = d2 / (n * (m - k))
    if variance <= 0:
        variance = np.finfo(float).tiny
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    # Log-likelihood per cluster, summed.
    with np.errstate(divide="ignore"):
        log_counts = np.where(counts > 0, np.log(np.maximum(counts, 1)), 0.0)
    ll = float(
        np.sum(
            counts * log_counts
            - counts * np.log(m)
            - counts * n / 2.0 * np.log(2.0 * np.pi * variance)
        )
        - (m - k) * n / 2.0
    )
    n_params = k * (n + 1)  # centres + shared variance per cluster weight
    return ll - n_params / 2.0 * np.log(m)


class XMeans:
    """BIC-guided k-means.

    Parameters
    ----------
    k_max:
        Largest number of clusters searched (from :data:`K_MIN`).
    seed:
        Passed through to the inner k-means runs.

    Attributes (after fit): ``n_clusters_``, ``labels_``,
    ``cluster_centers_``.
    """

    def __init__(
        self,
        k_max: int = 32,
        seed: SeedLike = None,
    ):
        if k_max < K_MIN:
            raise ValidationError(f"need k_max >= {K_MIN}")
        self.k_min = K_MIN
        self.k_max = int(k_max)
        self.n_init = N_INIT
        self.max_iter = MAX_ITER
        self.seed = seed
        self.labels_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "XMeans":
        x = check_array_2d(x, "X", min_rows=2)
        check_finite(x, "X")
        rng = as_generator(self.seed)

        km = KMeans(self.k_min, n_init=self.n_init, max_iter=self.max_iter,
                    seed=rng).fit(x)
        centers: List[np.ndarray] = [c for c in km.cluster_centers_]
        labels = km.labels_.copy()

        improved = True
        while improved and len(centers) < self.k_max:
            improved = False
            new_centers: List[np.ndarray] = []
            for ci, center in enumerate(centers):
                members = np.flatnonzero(labels == ci)
                pts = x[members]
                if members.size < 4 or len(centers) + len(new_centers) >= self.k_max:
                    new_centers.append(center)
                    continue
                parent_bic = bic_score(
                    pts, np.zeros(members.size, dtype=np.int64), center[None, :]
                )
                child = KMeans(2, n_init=self.n_init, max_iter=self.max_iter,
                               seed=rng).fit(pts)
                child_bic = bic_score(pts, child.labels_, child.cluster_centers_)
                if child_bic > parent_bic and np.unique(child.labels_).size == 2:
                    new_centers.extend([c for c in child.cluster_centers_])
                    improved = True
                else:
                    new_centers.append(center)
            if improved:
                # Warm-start Lloyd from the split centres.
                c_arr = np.asarray(new_centers)
                prev_inertia = np.inf
                for _ in range(self.max_iter):
                    labels, sums, counts, inertia = lloyd_iteration(x, c_arr)
                    nonzero = counts > 0
                    c_arr[nonzero] = sums[nonzero] / counts[nonzero, None]
                    if prev_inertia - inertia <= 1e-4 * max(prev_inertia, 1e-12):
                        break
                    prev_inertia = inertia
                # Drop centres that attract nothing.
                keep = np.bincount(labels, minlength=c_arr.shape[0]) > 0
                c_arr = c_arr[keep]
                labels, _, _, _ = lloyd_iteration(x, c_arr)
                centers = [c for c in c_arr]
            else:
                centers = new_centers

        self.cluster_centers_ = np.asarray(centers)
        self.labels_ = labels.astype(np.int64)
        self.n_clusters_ = len(centers)
        return self

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_

"""Mixed diagonal-covariance Gaussian clusters (the paper's workload).

Cluster centres are placed with a guaranteed minimum pairwise separation
(in units of the largest cluster sigma), because the paper's experiments
assume clusters that are separable in principle — the interesting question
is whether an algorithm finds them, not whether they exist.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.rng import SeedLike, as_generator

__all__ = ["gaussian_mixture"]

#: Per-dimension standard deviations are drawn uniformly from this interval
#: (diagonal covariance).
SIGMA_RANGE: Tuple[float, float] = (0.8, 1.2)


def _separated_centers(
    n_clusters: int, n_dims: int, separation: float, rng: np.random.Generator
) -> np.ndarray:
    """Rejection-sample cluster centres at least ``separation`` apart.

    Centres live in a box scaled so the expected nearest-neighbour distance
    comfortably exceeds the requirement; rejection rarely loops more than a
    few times. Distances are enforced in the full space, so projections may
    still overlap — exactly the hard case KeyBin2's rotations address.
    """
    box = separation * max(2.0, n_clusters ** (1.0 / min(n_dims, 3)))
    centers = np.empty((n_clusters, n_dims))
    count = 0
    attempts = 0
    max_attempts = 1000 * n_clusters
    while count < n_clusters:
        candidate = rng.uniform(-box, box, size=n_dims)
        if count == 0 or np.all(
            np.linalg.norm(centers[:count] - candidate, axis=1) >= separation
        ):
            centers[count] = candidate
            count += 1
        attempts += 1
        if attempts > max_attempts:
            # Give up on rejection and fall back to a deterministic lattice
            # along the first axis — always valid.
            for i in range(count, n_clusters):
                centers[i] = rng.uniform(-box, box, size=n_dims)
                centers[i, 0] = (i - n_clusters / 2) * separation * 1.5
            break
    return centers


def gaussian_mixture(
    n_points: int,
    n_dims: int,
    n_clusters: int = 4,
    separation: float = 6.0,
    weight_concentration: float = 10.0,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample a mixture of axis-aligned Gaussian clusters, rows shuffled so
    cluster membership is not positional.

    Parameters
    ----------
    n_points, n_dims, n_clusters:
        Dataset shape. The paper uses ``n_clusters = 4`` throughout §4.
    separation:
        Minimum centre-to-centre distance in units of the largest sigma
        (:data:`SIGMA_RANGE`).
    weight_concentration:
        Dirichlet concentration for cluster weights; large values give
        near-equal cluster sizes.

    Returns
    -------
    ``(X, y)`` — (M × N) float64 data and (M,) int64 ground-truth labels.
    """
    if n_points < n_clusters:
        raise ValidationError("need at least one point per cluster")
    if n_clusters < 1:
        raise ValidationError("n_clusters must be >= 1")
    rng = as_generator(seed)
    sigma_lo, sigma_hi = SIGMA_RANGE

    centers = _separated_centers(n_clusters, n_dims, separation * sigma_hi, rng)
    weights = rng.dirichlet(np.full(n_clusters, weight_concentration))
    counts = rng.multinomial(n_points - n_clusters, weights) + 1  # >=1 per cluster

    x = np.empty((n_points, n_dims))
    y = np.empty(n_points, dtype=np.int64)
    offset = 0
    for k in range(n_clusters):
        c = counts[k]
        sigmas = rng.uniform(sigma_lo, sigma_hi, size=n_dims)
        x[offset : offset + c] = centers[k] + rng.standard_normal((c, n_dims)) * sigmas
        y[offset : offset + c] = k
        offset += c

    perm = rng.permutation(n_points)
    return x[perm], y[perm]

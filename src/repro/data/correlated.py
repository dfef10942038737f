"""Correlated, projection-overlapping clusters (paper Figure 1).

Two (or more) elongated clusters whose principal axes are parallel and
offset *perpendicular* to the elongation: each original coordinate axis
sees the clusters' 1-D projections overlap almost completely, which is
exactly the case KeyBin1 could not separate and random rotations fix.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.rng import SeedLike, as_generator

__all__ = ["correlated_clusters"]

#: Sigma along the shared major axis relative to the minor axes (1.0).
ELONGATION = 8.0
#: Centre offset along the minor axis, in minor-sigma units. A gap of a few
#: sigma separates the clusters clearly in 2-D while their projections onto
#: *both* original axes overlap heavily (the major axis is the diagonal).
GAP = 3.0


def correlated_clusters(
    n_points: int,
    n_clusters: int = 2,
    n_dims: int = 2,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Elongated parallel clusters offset along their minor axis, as
    ``(X, y)``; the shape is :data:`ELONGATION` and :data:`GAP`."""
    if n_dims < 2:
        raise ValidationError("correlated clusters need n_dims >= 2")
    if n_clusters < 2:
        raise ValidationError("need at least 2 clusters to overlap")
    rng = as_generator(seed)
    counts = np.full(n_clusters, n_points // n_clusters)
    counts[: n_points % n_clusters] += 1

    # Major axis: the all-ones diagonal (maximally anti-aligned with every
    # coordinate axis). Minor axis: first orthogonal direction.
    major = np.ones(n_dims) / np.sqrt(n_dims)
    minor = np.zeros(n_dims)
    minor[0], minor[1] = 1.0, -1.0
    minor /= np.linalg.norm(minor)

    x = np.empty((n_points, n_dims))
    y = np.empty(n_points, dtype=np.int64)
    offset = 0
    for k in range(n_clusters):
        c = counts[k]
        center = minor * (k - (n_clusters - 1) / 2) * GAP
        along = rng.standard_normal(c) * ELONGATION
        across = rng.standard_normal((c, n_dims))
        # Remove the major-axis component of the isotropic noise, then add
        # the elongated component back explicitly.
        across -= np.outer(across @ major, major)
        x[offset : offset + c] = center + np.outer(along, major) + across
        y[offset : offset + c] = k
        offset += c
    perm = rng.permutation(n_points)
    return x[perm], y[perm]

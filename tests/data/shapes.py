"""Non-Gaussian cluster shapes: test data for the DBSCAN and generator tests.

Motivated by the paper's related-work discussion: k-means mislabels the
corners of *box-shaped* clusters (diagonal points sit closer to a foreign
centroid), and density methods are needed for *non-convex* shapes such as
rings and moons. No experiment uses these shapes, so they live with the
tests that do.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.rng import SeedLike, as_generator

__all__ = ["box_clusters", "ring_clusters", "moons"]


def box_clusters(
    n_points: int,
    n_dims: int = 2,
    n_clusters: int = 4,
    side: float = 4.0,
    spacing: float = 10.0,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform hyper-box clusters laid out on a diagonal lattice.

    Corner points of a box are the paper's canonical k-means failure case.
    """
    if n_clusters < 1 or n_points < n_clusters:
        raise ValidationError("need n_clusters >= 1 and n_points >= n_clusters")
    if side <= 0 or spacing <= side:
        raise ValidationError("need 0 < side < spacing so boxes do not touch")
    rng = as_generator(seed)
    counts = np.full(n_clusters, n_points // n_clusters)
    counts[: n_points % n_clusters] += 1
    x = np.empty((n_points, n_dims))
    y = np.empty(n_points, dtype=np.int64)
    offset = 0
    for k in range(n_clusters):
        center = np.full(n_dims, k * spacing, dtype=np.float64)
        c = counts[k]
        x[offset : offset + c] = center + rng.uniform(-side / 2, side / 2, (c, n_dims))
        y[offset : offset + c] = k
        offset += c
    perm = rng.permutation(n_points)
    return x[perm], y[perm]


def ring_clusters(
    n_points: int,
    n_rings: int = 2,
    radius_step: float = 5.0,
    noise: float = 0.15,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Concentric 2-D rings — the classic non-convex case."""
    if n_rings < 1 or n_points < n_rings:
        raise ValidationError("need n_rings >= 1 and n_points >= n_rings")
    rng = as_generator(seed)
    counts = np.full(n_rings, n_points // n_rings)
    counts[: n_points % n_rings] += 1
    x = np.empty((n_points, 2))
    y = np.empty(n_points, dtype=np.int64)
    offset = 0
    for k in range(n_rings):
        c = counts[k]
        r = (k + 1) * radius_step + rng.standard_normal(c) * noise
        theta = rng.uniform(0, 2 * np.pi, c)
        x[offset : offset + c, 0] = r * np.cos(theta)
        x[offset : offset + c, 1] = r * np.sin(theta)
        y[offset : offset + c] = k
        offset += c
    perm = rng.permutation(n_points)
    return x[perm], y[perm]


def moons(
    n_points: int,
    noise: float = 0.08,
    separation: float = 0.5,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two interleaved half-moons in 2-D."""
    if n_points < 2:
        raise ValidationError("need at least 2 points")
    rng = as_generator(seed)
    n_a = n_points // 2
    n_b = n_points - n_a
    theta_a = rng.uniform(0, np.pi, n_a)
    theta_b = rng.uniform(0, np.pi, n_b)
    a = np.stack([np.cos(theta_a), np.sin(theta_a)], axis=1)
    b = np.stack([1.0 - np.cos(theta_b), separation - np.sin(theta_b)], axis=1)
    x = np.concatenate([a, b]) + rng.standard_normal((n_points, 2)) * noise
    y = np.concatenate([np.zeros(n_a, np.int64), np.ones(n_b, np.int64)])
    perm = rng.permutation(n_points)
    return x[perm], y[perm]

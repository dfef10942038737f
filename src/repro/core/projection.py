"""Random projection construction (paper §3.1).

The paper projects the original ``N``-dimensional space into
``N_rp = 1.5·log(N)`` dimensions using a matrix of unit column vectors.
Unlike Johnson–Lindenstrauss-style bounds, KeyBin2 needs only that the
*ordering* of points along each projected direction spreads the data, so
``N_rp`` can be far below the JL bound — the hypergeometric argument in the
paper (eq. 1) just wants a decent chance of hitting an informative
direction, hence the logarithmic rule.

Three matrix families are provided:

``"gaussian"``
    i.i.d. normal entries, columns normalized to unit length. In high
    dimensions random Gaussian columns are nearly orthogonal, which is
    the property §3.1 leans on.
``"sparse"``
    Achlioptas ±1/0 entries (probabilities 1/6, 2/3, 1/6), normalized.
    Same guarantees in expectation, 3× fewer multiplies.
``"orthonormal"``
    QR-orthogonalized Gaussian columns — exactly orthogonal, the ideal
    rotation; slightly more expensive to build.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.util.rng import SeedLike, as_generator, spawn_generators

__all__ = [
    "target_dimension", "resolve_components", "projection_matrix",
    "trial_matrices", "PROJECTION_KINDS",
]

#: Fewest projected dimensions ``target_dimension`` returns.
MIN_DIM = 2

PROJECTION_KINDS = ("gaussian", "sparse", "orthonormal")


def target_dimension(
    n_features: int,
    factor: float = 1.5,
) -> int:
    """The paper's reduced dimensionality rule ``N_rp = 1.5·log(N)``.

    Natural log, rounded up, floored at :data:`MIN_DIM` and capped at
    ``n_features`` (projecting *up* never helps).
    """
    if n_features < 1:
        raise ValidationError(f"n_features must be >= 1, got {n_features}")
    if factor <= 0:
        raise ValidationError(f"factor must be positive, got {factor}")
    raw = math.ceil(factor * math.log(max(n_features, 2)))
    return int(min(max(raw, MIN_DIM), n_features))


def resolve_components(
    n_features: int, n_components: Optional[int], factor: float = 1.5
) -> int:
    """Projected dimensionality of a fit: ``n_components`` when given, else
    :func:`target_dimension`; clamped to ``[1, n_features]``."""
    n_rp = (
        target_dimension(n_features, factor=factor)
        if n_components is None
        else int(n_components)
    )
    return min(max(n_rp, 1), n_features)


def projection_matrix(
    n_features: int,
    n_components: int,
    seed: SeedLike = None,
    kind: str = "gaussian",
) -> np.ndarray:
    """Build an ``(n_features × n_components)`` unit-column projection matrix."""
    if n_features < 1 or n_components < 1:
        raise ValidationError("n_features and n_components must be >= 1")
    if n_components > n_features:
        raise ValidationError(
            f"n_components ({n_components}) cannot exceed n_features ({n_features})"
        )
    rng = as_generator(seed)
    if kind == "gaussian":
        a = rng.standard_normal((n_features, n_components))
    elif kind == "sparse":
        # Achlioptas: sqrt(3) * {+1 w.p. 1/6, 0 w.p. 2/3, -1 w.p. 1/6}
        u = rng.random((n_features, n_components))
        a = np.zeros((n_features, n_components))
        a[u < 1 / 6] = 1.0
        a[u > 5 / 6] = -1.0
        # Guard against an all-zero column (possible for tiny n_features).
        dead = np.flatnonzero(np.abs(a).sum(axis=0) == 0)
        for j in dead:
            a[rng.integers(n_features), j] = rng.choice([-1.0, 1.0])
    elif kind == "orthonormal":
        g = rng.standard_normal((n_features, n_components))
        q, r = np.linalg.qr(g)
        # Fix signs so the distribution is Haar-uniform.
        q *= np.sign(np.diag(r))
        return np.ascontiguousarray(q)
    else:
        raise ValidationError(
            f"unknown projection kind {kind!r}; choose from {PROJECTION_KINDS}"
        )
    norms = np.linalg.norm(a, axis=0, keepdims=True)
    # Degenerate zero-norm columns cannot occur for gaussian (prob. 0) and
    # were patched for sparse, but guard anyway.
    norms[norms == 0] = 1.0
    a /= norms
    return np.ascontiguousarray(a)


def trial_matrices(
    n_features: int,
    n_projections: int,
    seed: SeedLike,
    kind: str = "gaussian",
    n_components: Optional[int] = None,
    factor: float = 1.5,
) -> List[Optional[np.ndarray]]:
    """One projection matrix per bootstrap trial, each drawn from its own
    stream of ``seed``; ``None`` for every trial when ``kind`` is
    ``"none"`` (the trials bin the raw features)."""
    rngs = spawn_generators(seed, n_projections)
    if kind == "none":
        return [None] * len(rngs)
    n_rp = resolve_components(n_features, n_components, factor)
    return [projection_matrix(n_features, n_rp, seed=rng, kind=kind) for rng in rngs]

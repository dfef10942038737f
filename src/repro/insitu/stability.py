"""Probabilistic stability validation (paper §5.2, eqs. 3–4).

Given RMSD time series between each frame and ``N`` representative
conformations (labels):

1. eq. 3 converts distances to the probability that frame ``i`` *is*
   representative ``l``:  ``Pr(l | i) = (1/d_l,i) / Σ_k (1/d_k,i)``;
2. over the previous ``window`` (paper: 100) frames, each label's
   probability samples form a distribution whose **70% High Density
   Region** centre is the label's stability score at ``i`` (∈ [0, 1]);
3. eq. 4 declares frame ``i`` *stable for label p* when the top score
   leads the runner-up by at least ``w``; otherwise the frame is
   transitional.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "label_probabilities",
    "hdr_center",
    "stability_scores",
    "stability_decisions",
]


#: Distances are floored here before inversion (eq. 3).
DISTANCE_FLOOR = 1e-9
#: Share of a label's windowed probabilities its stability score's HDR
#: covers (the 70% highest-density region).
HDR_MASS = 0.70

def label_probabilities(distances: np.ndarray) -> np.ndarray:
    """Eq. 3: inverse-distance label probabilities per frame.

    ``distances`` is (n_labels × n_frames); zeros are floored to
    :data:`DISTANCE_FLOOR` so an exact match yields probability ≈ 1 rather
    than a division error.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2:
        raise ValidationError("distances must be (n_labels × n_frames)")
    if np.any(d < 0):
        raise ValidationError("distances must be non-negative")
    inv = 1.0 / np.maximum(d, DISTANCE_FLOOR)
    return inv / inv.sum(axis=0, keepdims=True)


def hdr_center(samples: np.ndarray, mass: float = HDR_MASS) -> float:
    """Centre of the smallest interval containing ``mass`` of the samples.

    The sample-based HDR: sort, slide a window covering ``ceil(mass·n)``
    points, take the narrowest window's midpoint.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = s.size
    if n == 0:
        raise ValidationError("samples must be non-empty")
    if not (0.0 < mass <= 1.0):
        raise ValidationError("mass must be in (0, 1]")
    k = max(1, int(np.ceil(mass * n)))
    if k >= n:
        return float((s[0] + s[-1]) / 2.0)
    widths = s[k - 1 :] - s[: n - k + 1]
    i = int(np.argmin(widths))
    return float((s[i] + s[i + k - 1]) / 2.0)


def stability_scores(
    probabilities: np.ndarray,
    window: int = 100,
) -> np.ndarray:
    """Per-frame, per-label HDR-centre stability scores.

    For frame ``i``, each label's score is the :data:`HDR_MASS` HDR centre of that
    label's probabilities over frames ``(i−window, i]``. Early frames use
    the partial history available.
    Returns (n_labels × n_frames).
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2:
        raise ValidationError("probabilities must be (n_labels × n_frames)")
    if window < 1:
        raise ValidationError("window must be >= 1")
    n_labels, n_frames = p.shape
    out = np.empty_like(p)
    for i in range(n_frames):
        lo = max(0, i - window + 1)
        for l in range(n_labels):
            out[l, i] = hdr_center(p[l, lo : i + 1], HDR_MASS)
    return out


def stability_decisions(
    scores: np.ndarray, threshold: float = 0.1
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 4: per-frame (stable_mask, winning_label).

    A frame is stable when the best label's score exceeds the runner-up's
    by at least ``threshold`` (``w`` in the paper); the winning label is
    reported either way (it is the *candidate* conformation).
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValidationError("scores must be (n_labels × n_frames)")
    if s.shape[0] < 2:
        raise ValidationError("need at least two labels to compare")
    order = np.argsort(s, axis=0)
    top = order[-1]
    top_score = np.take_along_axis(s, top[None, :], axis=0)[0]
    second_score = np.take_along_axis(s, order[-2][None, :], axis=0)[0]
    stable = (top_score - second_score) >= threshold
    return stable, top.astype(np.int64)

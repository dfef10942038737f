"""Point-space Calinski–Harabasz index: the test oracle for ``histogram_ch_index``.

The classical index the paper's eq. 2 approximates in histogram space.
``tests/core/test_assess.py`` uses it to check that the histogram-space variant ranks partitions
the same way the exact point-space computation does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["calinski_harabasz_points"]


def calinski_harabasz_points(x: np.ndarray, labels: np.ndarray) -> float:
    """CH = (B/(k−1)) / (W/(M−k)) over actual points.

    Noise labels (−1) are excluded. Returns ``-inf`` for fewer than two
    effective clusters.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if x.ndim != 2 or labels.shape[0] != x.shape[0]:
        raise ValidationError("x must be (M × N) with matching labels")
    mask = labels >= 0
    x, labels = x[mask], labels[mask]
    uniq = np.unique(labels)
    k = uniq.size
    m = x.shape[0]
    if k < 2 or m <= k:
        return float("-inf")
    overall = x.mean(axis=0)
    w = 0.0
    b = 0.0
    for c in uniq:
        pts = x[labels == c]
        centre = pts.mean(axis=0)
        w += float(np.sum((pts - centre) ** 2))
        b += pts.shape[0] * float(np.sum((centre - overall) ** 2))
    if w <= 0:
        return float("inf") if b > 0 else float("-inf")
    return (b / (k - 1)) / (w / (m - k))

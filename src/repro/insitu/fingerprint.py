"""Cluster fingerprints (paper §5.1, Figure 4).

KeyBin2 on secondary-structure features produces many fine-grained
clusters; "sequences of fine grained clusters will form a cluster
fingerprint" identifying a conformational search space. A fingerprint here
is the *set of cluster labels active in a sliding window* — stable phases
keep a constant signature, transitions churn it, and a revisited phase
reproduces its earlier signature.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence

import numpy as np


__all__ = ["window_fingerprints", "fingerprint_change_points", "fingerprint_similarity"]

#: Trailing frames a fingerprint summarizes.
WINDOW = 50
#: Occurrences in the trailing window a label needs to enter a fingerprint.
MIN_SUPPORT = 2
#: A change point is a Jaccard similarity below ``CHANGE_THRESHOLD`` to the
#: previous frame; detections within ``MIN_SPACING`` frames collapse to the
#: first. 0.6 catches the canonical hand-over pattern ``{a} → {a, b} → {b}``
#: (similarity exactly 0.5 at each step).
CHANGE_THRESHOLD = 0.6
MIN_SPACING = 25


def window_fingerprints(labels: np.ndarray) -> List[FrozenSet[int]]:
    """Per-frame fingerprints: labels occurring ≥ :data:`MIN_SUPPORT` times
    in the trailing :data:`WINDOW` frames.

    Noise labels (−1) never enter a fingerprint. Early frames use the
    partial window available.
    """
    labels = np.asarray(labels).ravel()
    window = WINDOW
    out: List[FrozenSet[int]] = []
    from collections import Counter

    counter: Counter = Counter()
    for i in range(labels.size):
        counter[int(labels[i])] += 1
        if i >= window:
            old = int(labels[i - window])
            counter[old] -= 1
            if counter[old] == 0:
                del counter[old]
        out.append(
            frozenset(l for l, c in counter.items() if l >= 0 and c >= MIN_SUPPORT)
        )
    return out


def fingerprint_similarity(a: FrozenSet[int], b: FrozenSet[int]) -> float:
    """Jaccard similarity of two fingerprints (empty–empty counts as 1)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def fingerprint_change_points(
    fingerprints: Sequence[FrozenSet[int]],
) -> np.ndarray:
    """Frames where the fingerprint changes materially.

    A change point is a frame whose fingerprint's Jaccard similarity to the
    previous frame's drops below :data:`CHANGE_THRESHOLD`; consecutive
    detections within :data:`MIN_SPACING` frames collapse to the first.
    Frames whose previous fingerprint is empty are skipped — that is
    window warm-up, not a conformational change.
    """
    threshold, min_spacing = CHANGE_THRESHOLD, MIN_SPACING
    points: List[int] = []
    last = -min_spacing
    for i in range(1, len(fingerprints)):
        if not fingerprints[i - 1]:
            continue
        sim = fingerprint_similarity(fingerprints[i - 1], fingerprints[i])
        if sim < threshold and i - last >= min_spacing:
            points.append(i)
            last = i
    return np.asarray(points, dtype=np.int64)

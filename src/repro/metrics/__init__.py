"""Clustering-quality metrics and run statistics.

The paper reports pair-counting precision / recall / F1 (§4): a true
positive is a point *pair* placed in the same cluster that truly belongs
together. :mod:`repro.metrics.pairs` computes these from the contingency
table in O(K_true · K_pred), never enumerating the O(M²) pairs.
"""

from __future__ import annotations

from repro.metrics.pairs import pair_confusion, pair_precision_recall_f1, PairScores
from repro.metrics.external import purity, normalized_mutual_info, adjusted_rand_index
from repro.metrics.stats import mean_ci, RunAggregate

__all__ = [
    "pair_confusion",
    "pair_precision_recall_f1",
    "PairScores",
    "purity",
    "normalized_mutual_info",
    "adjusted_rand_index",
    "mean_ci",
    "RunAggregate",
]

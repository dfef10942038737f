"""Synthetic dataset generators used throughout the evaluation.

The paper's scalability experiments draw from "4 mixed Gaussian
distributions with a diagonal covariance matrix"; Figure 1 uses
correlated clusters whose 1-D projections overlap. All generators return ``(X, y)`` with ground-truth
labels so clustering accuracy can be quantified, and all are seeded.
"""

from __future__ import annotations

from repro.data.gaussians import gaussian_mixture
from repro.data.correlated import correlated_clusters
from repro.data.streams import BatchStream, DriftingStream, distributed_partitions

__all__ = [
    "gaussian_mixture",
    "correlated_clusters",
    "BatchStream",
    "DriftingStream",
    "distributed_partitions",
]

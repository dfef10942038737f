"""KeyBin2: distributed key-based clustering for scalable and in-situ analysis.

Reproduction of Chen, Peterson, Benson, Taufer & Estrada,
*KeyBin2: Distributed Clustering for Scalable and In-Situ Analysis*,
ICPP 2018.

Quickstart
----------
>>> from repro import KeyBin2
>>> from repro.data import gaussian_mixture
>>> X, y = gaussian_mixture(n_points=5000, n_dims=32, n_clusters=4, seed=0)
>>> labels = KeyBin2(seed=0).fit_predict(X)

Subpackages
-----------
core       the KeyBin2 algorithm (batch, streaming, distributed, KeyBin1)
comm       SPMD message-passing substrate (thread/process/MPI executors)
kernels    data-parallel compute kernels (the GPU substitute)
baselines  k-means++, parallel k-means, DBSCAN, PDSDBSCAN, X-means
metrics    pair precision/recall/F1, NMI, ARI, purity, run CIs
data       synthetic generators (Gaussians, correlated, streams)
proteins   synthetic folding trajectories + Ramachandran encoding (§5)
insitu     fingerprints, stability scoring, metastable segments (§5)
serve      online model serving (registry/hot-swap, micro-batching, TCP)
bench      experiment harness regenerating the paper's tables and figures
"""

from __future__ import annotations

from repro._version import __version__
from repro.errors import (
    CommError,
    ConvergenceError,
    NotFittedError,
    RankFailedError,
    ReproError,
    ValidationError,
)
from repro.core import (
    KeyBin1,
    KeyBin2,
    KeyBin2Model,
    KeyOutlierDetector,
    StreamingKeyBin2,
    fit_distributed,
    keybin2_spmd,
)

__all__ = [
    "__version__",
    "KeyBin2",
    "KeyBin1",
    "KeyBin2Model",
    "KeyOutlierDetector",
    "StreamingKeyBin2",
    "fit_distributed",
    "keybin2_spmd",
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "CommError",
    "RankFailedError",
    "ConvergenceError",
]

"""Distributed k-means (Liao-style parallel-kmeans).

The paper's scalability baseline: the dataset is sharded across MPI ranks;
every Lloyd iteration computes local per-cluster sums/counts and allreduces
them, so each iteration moves O(k·N) floats per rank. Accuracy is identical
to sequential k-means on the union of shards (given the same seeding),
while compute parallelizes across ranks — but per-iteration communication
grows with dimensionality, which is the scaling disadvantage versus
KeyBin2 that Tables 1–2 exhibit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.kmeans import kmeans_plus_plus_init, lloyd_iteration
from repro.comm.base import Communicator, ReduceOp
from repro.comm.spmd import run_spmd
from repro.errors import ValidationError
from repro.util.rng import as_generator
from repro.util.validation import check_array_2d, check_finite

__all__ = ["parallel_kmeans_spmd", "ParallelKMeans"]

#: :class:`ParallelKMeans` runs Lloyd for at most ``MAX_ITER`` rounds,
#: stopping early once inertia improves by less than ``TOL`` (relative),
#: on ``EXECUTOR`` ranks that wait at most ``TIMEOUT_S`` per receive.
MAX_ITER = 100
TOL = 1e-4
EXECUTOR = "thread"
TIMEOUT_S = 600.0


def parallel_kmeans_spmd(
    comm: Communicator,
    x_local: np.ndarray,
    n_clusters: int,
    max_iter: int = 100,
    tol: float = 1e-4,
    seed: Optional[int] = 0,
    init: str = "first",
) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """SPMD k-means over sharded data.

    Seeding (``init``):

    * ``"first"`` (default) — rank 0 broadcasts its first ``k`` local
      points, which is what Liao's reference implementation does. Cheap,
      but with overlapping clusters it regularly seeds one cluster twice
      and converges to a poor optimum — the accuracy degradation the
      paper's Tables 1–2 show for parallel-kmeans at high dimensionality.
    * ``"kmeans++"`` — D² seeding on rank 0's shard (stronger baseline).

    Returns ``(local_labels, centers, inertia, n_iter)``; centres and
    inertia are identical on every rank.
    """
    x_local = check_array_2d(x_local, "x_local", min_rows=1)
    check_finite(x_local, "x_local")
    if n_clusters < 1:
        raise ValidationError("n_clusters must be >= 1")
    if init not in ("first", "kmeans++"):
        raise ValidationError("init must be 'first' or 'kmeans++'")

    if comm.rank == 0:
        if x_local.shape[0] < n_clusters:
            raise ValidationError(
                "rank 0 needs at least n_clusters local points for seeding"
            )
        if init == "first":
            centers = x_local[:n_clusters].copy()
        else:
            centers = kmeans_plus_plus_init(x_local, n_clusters, as_generator(seed))
    else:
        centers = None
    centers = comm.bcast(centers, root=0)

    labels = np.zeros(x_local.shape[0], dtype=np.int64)
    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        labels, sums, counts, local_inertia = lloyd_iteration(x_local, centers)
        # One allreduce per iteration: k·N sums + k counts + inertia.
        payload = np.concatenate(
            [sums.ravel(), counts.astype(np.float64), [local_inertia]]
        )
        total = comm.allreduce(payload, op=ReduceOp.SUM)
        k, n = centers.shape
        g_sums = total[: k * n].reshape(k, n)
        g_counts = total[k * n : k * n + k]
        inertia = float(total[-1])
        empty = g_counts == 0
        if empty.any():
            # Deterministic repair: keep the stale centre (a dead centre
            # attracts nothing and is reported as an empty cluster).
            g_sums[empty] = centers[empty]
            g_counts[empty] = 1.0
        centers = g_sums / g_counts[:, None]
        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia
    return labels.astype(np.int64), centers, inertia, n_iter


class ParallelKMeans:
    """Front-end running :func:`parallel_kmeans_spmd` over pre-sharded data.

    Attributes (after fit): ``cluster_centers_``, ``labels_`` (list, one
    array per shard), ``inertia_``, ``n_iter_``, ``traffic_``.
    """

    def __init__(
        self,
        n_clusters: int,
        seed: Optional[int] = 0,
        init: str = "first",
    ):
        self.n_clusters = int(n_clusters)
        self.seed = seed
        self.init = init

    def fit(self, shards: Sequence[np.ndarray]) -> "ParallelKMeans":
        shards = [np.asarray(s) for s in shards]
        if not shards:
            raise ValidationError("need at least one shard")
        results = run_spmd(
            _entry,
            len(shards),
            executor=EXECUTOR,
            args=(list(shards), self.n_clusters, MAX_ITER, TOL,
                  self.seed, self.init),
            timeout=TIMEOUT_S,
        )
        self.labels_ = [r[0] for r in results]
        self.cluster_centers_ = results[0][1]
        self.inertia_ = results[0][2]
        self.n_iter_ = results[0][3]
        self.traffic_ = [r[4] for r in results]
        return self

    def concatenated_labels(self) -> np.ndarray:
        return np.concatenate(self.labels_)


def _entry(comm: Communicator, shards: List[np.ndarray], k: int, max_iter: int,
           tol: float, seed: Optional[int], init: str):
    labels, centers, inertia, n_iter = parallel_kmeans_spmd(
        comm, shards[comm.rank], k, max_iter=max_iter, tol=tol, seed=seed,
        init=init,
    )
    return labels, centers, inertia, n_iter, comm.traffic.snapshot()

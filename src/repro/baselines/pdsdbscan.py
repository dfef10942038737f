"""PDSDBSCAN — parallel DBSCAN with the disjoint-set data structure.

Follows Patwary et al. (SC'12): the data is spatially partitioned across
ranks with a ghost zone of width ``eps``; each rank runs union-find DBSCAN
locally, then cross-partition core–core edges through ghost points are
merged with distributed union operations. Here the rank-parallel portion is
executed through :mod:`repro.comm` and the final label resolution happens on
the master, which is faithful to the algorithm's structure at the scales we
run.

The known limitation the paper leans on — memory/time blow-up in very high
dimensions — is inherited naturally: neighbourhood queries fall back to
brute force there (see :class:`repro.baselines.dbscan.GridIndex`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.dbscan import NOISE, GridIndex
from repro.comm.base import Communicator
from repro.comm.spmd import run_spmd
from repro.errors import ValidationError
from repro.util.validation import check_array_2d, check_finite

__all__ = ["DisjointSet", "PDSDBSCAN", "pdsdbscan_spmd"]

#: :class:`PDSDBSCAN` runs on ``EXECUTOR`` ranks that wait at most
#: ``TIMEOUT_S`` per receive.
EXECUTOR = "thread"
TIMEOUT_S = 600.0


class DisjointSet:
    """Union–find with path halving and union by rank."""

    def __init__(self, n: int):
        if n < 0:
            raise ValidationError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return int(i)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra

    def roots(self) -> np.ndarray:
        """Root of every element (fully compressed)."""
        return np.array([self.find(i) for i in range(self.parent.size)],
                        dtype=np.int64)


def pdsdbscan_spmd(
    comm: Communicator,
    x_local: np.ndarray,
    eps: float,
    min_points: int = 5,
) -> np.ndarray:
    """SPMD PDSDBSCAN; every rank passes its shard, gets local labels back.

    Structure (after Patwary et al.): local union-find DBSCAN per rank,
    then cross-partition core–core edges merged with distributed unions at
    the master, which broadcasts the root relabelling.

    Ghost zones: with Patwary's *spatial* partitioning the points a rank
    must see beyond its own are an ε-wide shell. Shards here are arbitrary
    (often random), so the ghost shell is the full complement — each rank
    allgathers the dataset for neighbour counting. This keeps core/noise
    decisions exactly equal to serial DBSCAN and deliberately inherits the
    algorithm's real memory behaviour (the paper's "could not handle more
    than 100,000 points").
    """
    x_local = check_array_2d(x_local, "x_local", min_rows=1)
    check_finite(x_local, "x_local")

    shards = comm.allgather(x_local)
    x_global = np.concatenate(shards)
    base = int(sum(s.shape[0] for s in shards[: comm.rank]))
    m_local = x_local.shape[0]

    # Exact core test against the global point set.
    index = GridIndex(x_global, eps)
    core = np.zeros(m_local, dtype=bool)
    neigh_cache: List[np.ndarray] = [None] * m_local  # type: ignore[list-item]
    for i in range(m_local):
        neigh = index.neighbors(base + i)
        neigh_cache[i] = neigh
        core[i] = neigh.size >= min_points

    # Local union-find over this rank's core points (cross-rank core-core
    # edges are added at the master).
    ds = DisjointSet(m_local)
    for i in range(m_local):
        if not core[i]:
            continue
        for j in neigh_cache[i]:
            jj = int(j) - base
            if 0 <= jj < m_local and core[jj]:
                ds.union(i, jj)
    roots = ds.roots()

    # Noise: non-core with no core neighbour anywhere (the ghost-adoption
    # pass below rescues border points whose core neighbour is remote).
    is_noise = ~core

    global_roots = roots + base

    core_payload = (x_local[core], global_roots[core])
    gathered = comm.gather(core_payload, root=0)
    if comm.rank == 0:
        all_core = np.concatenate([g[0] for g in gathered]) if gathered else np.empty((0, x_local.shape[1]))
        all_roots = np.concatenate([g[1] for g in gathered]) if gathered else np.empty(0, np.int64)
        mapping = _merge_cross_partition(all_core, all_roots, eps)
        core_labels = np.array(
            [mapping.get(int(r), NOISE) for r in all_roots], dtype=np.int64
        )
        ghost = (all_core, core_labels)
    else:
        mapping = None
        ghost = None
    mapping = comm.bcast(mapping, root=0)
    # Ghost exchange (paper: eps-wide ghost zones): locally-noise points may
    # border a core point that lives on another rank; the global core set is
    # broadcast so every rank can adopt its stranded border points.
    all_core, core_labels = comm.bcast(ghost, root=0)

    labels = np.empty(x_local.shape[0], dtype=np.int64)
    noise_idx = np.flatnonzero(is_noise)
    for i in range(x_local.shape[0]):
        if is_noise[i]:
            labels[i] = NOISE
        else:
            labels[i] = mapping.get(int(global_roots[i]), NOISE)
    if noise_idx.size and all_core.shape[0]:
        for i in noise_idx:
            diff = all_core - x_local[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            j = int(np.argmin(d2))
            if d2[j] <= eps * eps:
                labels[i] = core_labels[j]
    return labels


def _merge_cross_partition(
    core_points: np.ndarray, core_roots: np.ndarray, eps: float
) -> Dict[int, int]:
    """Union core roots whose points lie within ``eps`` across partitions,
    then densify the surviving roots into labels 0..n_clusters-1."""
    unique_roots, inverse = np.unique(core_roots, return_inverse=True)
    ds = DisjointSet(unique_roots.size)
    if core_points.shape[0]:
        index = GridIndex(core_points, eps)
        for i in range(core_points.shape[0]):
            for j in index.neighbors(i):
                ds.union(int(inverse[i]), int(inverse[j]))
    final_roots = ds.roots()
    dense = {r: k for k, r in enumerate(sorted(set(int(v) for v in final_roots)))}
    return {
        int(unique_roots[i]): dense[int(final_roots[i])]
        for i in range(unique_roots.size)
    }


class PDSDBSCAN:
    """Front-end running :func:`pdsdbscan_spmd` over pre-sharded data.

    Attributes (after fit): ``labels_`` (list per shard), ``n_clusters_``,
    ``traffic_``.
    """

    def __init__(
        self,
        eps: float,
        min_points: int = 5,
    ):
        if eps <= 0:
            raise ValidationError("eps must be positive")
        self.eps = float(eps)
        self.min_points = int(min_points)

    def fit(self, shards: Sequence[np.ndarray]) -> "PDSDBSCAN":
        shards = [np.asarray(s) for s in shards]
        if not shards:
            raise ValidationError("need at least one shard")
        results = run_spmd(
            _entry,
            len(shards),
            executor=EXECUTOR,
            args=(list(shards), self.eps, self.min_points),
            timeout=TIMEOUT_S,
        )
        self.labels_ = [r[0] for r in results]
        self.traffic_ = [r[1] for r in results]
        all_labels = np.concatenate(self.labels_)
        self.n_clusters_ = int(np.unique(all_labels[all_labels >= 0]).size)
        return self

    def concatenated_labels(self) -> np.ndarray:
        return np.concatenate(self.labels_)


def _entry(comm: Communicator, shards: List[np.ndarray], eps: float, min_points: int):
    labels = pdsdbscan_spmd(comm, shards[comm.rank], eps, min_points)
    return labels, comm.traffic.snapshot()

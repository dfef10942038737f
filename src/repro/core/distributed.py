"""Distributed (SPMD) KeyBin2 driver (paper §3.5).

Implements the paper's master–worker deployment on top of
:mod:`repro.comm`, with an allreduce/ring alternative. Every rank runs
the batch fit's driver (:meth:`KeyBin2._fit_trials
<repro.core.estimator.KeyBin2._fit_trials>`) on its shard, with
collectives as its three hooks:

1. every rank builds the *same* projection matrices from the shared seed
   (no communication),
2. one stacked-GEMM pass over the shard measures the raw projected
   bounds of every trial; **one** elementwise min/max allreduce merges
   the (2 × t·N_rp) array, and each trial's merged range is padded by
   ``range_margin`` once — the range a single process measures over all
   of the data,
3. one fused pass bins the shard for every trial, and **one** collective
   sums every trial's deepest histogram table so every rank holds the
   global tables: reduced at the master and broadcast (paper's topology,
   ``"master"``), or allreduced (``"allreduce"``/``"ring"``); the modes
   differ only in this collective. Shallower depths are reshape-sums of
   the deepest table, so they never travel,
4. every rank partitions the identical global histograms — cut finding
   is deterministic, so no cuts travel,
5. the occupied-cell tables of every (trial, depth) candidate are
   unioned at once (tiny: a few ints per cluster): **one** gather to the
   master, which merges each candidate's tables in rank order, and
   **one** broadcast of the global tables, so labels are consistent
   across ranks,
6. the CH score is computed from the global histogram; the best-scoring
   candidate wins on every rank simultaneously (same data ⇒ same
   decision).

Steps 4–6 are the shared tail (:mod:`repro.core.tail`), so the model
equals the one :class:`~repro.core.estimator.KeyBin2` fits on the pooled
data. The only payloads proportional to anything are the histograms —
t · N_rp · 2^D integers per rank — which is the paper's O(K·N_rp·B)
communication claim, without the factor 2 of sending every depth;
``comm.traffic`` measures it. The bounds, histogram and table
collectives each run once per fit whatever the number of trials and
depths: at 2 ranks, rank 0 sends 5 messages per fit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.base import Communicator, ReduceOp
from repro.comm.ring import ring_allreduce
from repro.comm.spmd import run_spmd
from repro.core.estimator import KeyBin2
from repro.core.model import KeyBin2Model
from repro.core.primary import GlobalClusterTable
from repro.errors import ValidationError
from repro.util.validation import check_array_2d

__all__ = ["keybin2_spmd", "fit_distributed", "DistributedFitResult"]

#: Receive timeout of :func:`fit_distributed`'s ranks, in seconds.
FIT_TIMEOUT_S = 600.0

CONSOLIDATION_MODES = ("master", "allreduce", "ring")


def _merge_ranges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reduce op for stacked (2 × N) [min; max] bounds."""
    return np.stack([np.minimum(a[0], b[0]), np.maximum(a[1], b[1])])


def _merge_bounds(comm: Communicator, local: List[np.ndarray]) -> List[np.ndarray]:
    """Global [min; max] of every trial's (2 × N_rp) bounds, in one
    allreduce."""
    merged = comm.allreduce(np.concatenate(local, axis=1), op=_merge_ranges)
    return np.split(merged, np.cumsum([part.shape[1] for part in local])[:-1], axis=1)


def _consolidate_histograms(
    comm: Communicator, local: List[np.ndarray], mode: str
) -> List[np.ndarray]:
    """Sum every trial's deepest histogram table over the ranks, in one
    collective; return the global tables on every rank."""
    buf = np.concatenate([table.ravel() for table in local])
    if mode == "ring":
        total = ring_allreduce(comm, buf, op=ReduceOp.SUM)
    elif mode == "allreduce":
        total = comm.allreduce(buf, op=ReduceOp.SUM)
    elif mode == "master":
        summed = comm.reduce(buf, op=ReduceOp.SUM, root=0)
        total = comm.bcast(summed, root=0)
    else:
        raise ValidationError(f"mode must be one of {CONSOLIDATION_MODES}")
    offsets = np.cumsum([0] + [table.size for table in local])
    return [
        total[lo:hi].reshape(table.shape)
        for table, lo, hi in zip(local, offsets[:-1], offsets[1:])
    ]


def _union_tables(
    comm: Communicator, local: List[GlobalClusterTable]
) -> List[GlobalClusterTable]:
    """Union of the occupied cells of every rank, for every candidate's
    table at once: one gather and one broadcast per fit."""
    gathered = comm.gather([(t.codes, t.sizes) for t in local], root=0)
    payload = None
    if comm.rank == 0:
        payload = []
        for i, merged in enumerate(local):
            for peer in gathered[1:]:
                merged = merged.merge(GlobalClusterTable(*peer[i]))
            payload.append((merged.codes, merged.sizes))
    return [GlobalClusterTable(codes, sizes) for codes, sizes in comm.bcast(payload, root=0)]


def keybin2_spmd(
    comm: Communicator,
    x_local: np.ndarray,
    n_projections: int = 8,
    n_components: Optional[int] = None,
    candidate_depths: Sequence[int] = (3, 4, 5, 6),
    projection: str = "gaussian",
    projection_factor: float = 1.5,
    range_margin: float = 0.05,
    collapse: bool = True,
    uniform_threshold: float = 0.05,
    min_support_bins: int = 3,
    min_cut_prominence: float = 0.10,
    smoother: str = "ma",
    seed: Optional[int] = 0,
    consolidation: str = "master",
) -> Tuple[np.ndarray, KeyBin2Model]:
    """SPMD KeyBin2: every rank calls this with its local shard.

    Returns ``(local_labels, model)``; the model is identical on all ranks
    and labels are globally consistent (label ``i`` means the same cluster
    everywhere). Options mean what they mean for
    :class:`~repro.core.estimator.KeyBin2`, ``"auto"`` depths included
    (resolved from the global point count).

    ``seed`` must be a plain integer (identical across ranks) — it is the
    shared source of the projection matrices.
    """
    x_local = check_array_2d(x_local, "x_local", min_rows=1)
    estimator = KeyBin2(
        n_projections=n_projections, n_components=n_components,
        candidate_depths=candidate_depths, projection=projection,
        projection_factor=projection_factor, range_margin=range_margin,
        collapse=collapse, uniform_threshold=uniform_threshold,
        min_support_bins=min_support_bins,
        min_cut_prominence=min_cut_prominence, smoother=smoother, seed=seed,
    )
    if consolidation not in CONSOLIDATION_MODES:
        raise ValidationError(f"consolidation must be one of {CONSOLIDATION_MODES}")
    n = x_local.shape[1]
    n_check = comm.allreduce(np.array([n, -n]), op=ReduceOp.MAX)
    if int(n_check[0]) != n or int(-n_check[1]) != n:
        raise ValidationError("all ranks must hold the same number of features")

    model, labels, _ = estimator._fit_trials(
        x_local,
        int(comm.allreduce(x_local.shape[0])),
        merge_bounds=lambda bounds: _merge_bounds(comm, bounds),
        merge_tables=lambda tables: _consolidate_histograms(
            comm, tables, consolidation
        ),
        union_tables=lambda tables: _union_tables(comm, tables),
        meta={"consolidation": consolidation, "ranks": comm.size},
    )
    return labels, model


class DistributedFitResult:
    """Outcome of :func:`fit_distributed`.

    Attributes
    ----------
    labels:
        Per-rank label arrays, in rank order (concatenate for the global
        assignment if shards were contiguous splits).
    model:
        The fitted :class:`~repro.core.model.KeyBin2Model` (identical on
        all ranks; rank 0's copy).
    traffic:
        Per-rank traffic snapshots (messages/bytes sent and received).
    """

    def __init__(self, labels: List[np.ndarray], model: KeyBin2Model,
                 traffic: List[Dict[str, int]]):
        self.labels = labels
        self.model = model
        self.traffic = traffic

    @property
    def n_clusters(self) -> int:
        return self.model.n_clusters

    def concatenated_labels(self) -> np.ndarray:
        return np.concatenate(self.labels)


def _spmd_entry(comm: Communicator, shards: List[np.ndarray], params: Dict[str, Any]):
    labels, model = keybin2_spmd(comm, shards[comm.rank], **params)
    return labels, model.to_dict(), comm.traffic.snapshot()


def fit_distributed(
    shards: Sequence[np.ndarray],
    executor: str = "thread",
    **params: Any,
) -> DistributedFitResult:
    """Fit KeyBin2 over pre-sharded data, one rank per shard.

    Convenience front-end for tests and benchmarks; real deployments call
    :func:`keybin2_spmd` directly from their own SPMD program (e.g. under
    ``mpiexec``). Ranks wait at most :data:`FIT_TIMEOUT_S` per receive.
    """
    shards = [np.asarray(s) for s in shards]
    if not shards:
        raise ValidationError("need at least one shard")
    results = run_spmd(
        _spmd_entry, len(shards), executor=executor,
        args=(list(shards), params), timeout=FIT_TIMEOUT_S,
    )
    labels = [r[0] for r in results]
    model = KeyBin2Model.from_dict(results[0][1])
    traffic = [r[2] for r in results]
    return DistributedFitResult(labels, model, traffic)

"""Distributed (SPMD) KeyBin2 driver (paper §3.5).

Implements the paper's master–worker deployment on top of
:mod:`repro.comm`, with an allreduce/ring alternative. Per bootstrap trial:

1. every rank builds the *same* projection matrix from the shared seed
   (no communication),
2. per-rank raw projected bounds are merged with an elementwise min/max
   allreduce (2 small vectors), and the merged range is padded by
   ``range_margin`` once — the range a single process measures over all
   of the data,
3. per-rank histograms are consolidated so every rank holds the global
   histogram: reduced at the master and broadcast (paper's topology,
   ``"master"``), or allreduced (``"allreduce"``/``"ring"``); the modes
   differ only in this collective,
4. every rank partitions the identical global histogram — cut finding is
   deterministic, so no cuts travel,
5. occupied-cell tables are unioned (tiny: a few ints per cluster) and the
   global table broadcast, so labels are consistent across ranks,
6. the CH score is computed from the global histogram; the best-scoring
   candidate wins on every rank simultaneously (same data ⇒ same
   decision).

Steps 4–6 are the shared tail (:mod:`repro.core.tail`), so the model
equals the one :class:`~repro.core.estimator.KeyBin2` fits on the pooled
data. The only payloads proportional to anything are the histograms —
O(N_rp · B) integers per rank per trial — which is the paper's
O(2·K·N_rp·B) total communication claim; ``comm.traffic`` measures it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.base import Communicator, ReduceOp
from repro.comm.ring import ring_allreduce
from repro.comm.spmd import run_spmd
from repro.core.binning import SpaceRange
from repro.core.collapse import collapse_dimensions
from repro.core.estimator import check_fit_options, depth_histograms, resolve_depths
from repro.core.model import KeyBin2Model
from repro.core.primary import GlobalClusterTable
from repro.core.projection import projection_matrix, resolve_components
from repro.core.tail import Candidate, TrialHistograms, candidate_models, select_best
from repro.errors import ValidationError
from repro.kernels.project import project_points
from repro.util.rng import spawn_generators
from repro.util.validation import check_array_2d, check_finite

__all__ = ["keybin2_spmd", "fit_distributed", "DistributedFitResult"]

CONSOLIDATION_MODES = ("master", "allreduce", "ring")


def _merge_ranges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reduce op for stacked (2 × N) [min; max] bounds."""
    return np.stack([np.minimum(a[0], b[0]), np.maximum(a[1], b[1])])


def _consolidate_histograms(
    comm: Communicator,
    local: Dict[int, np.ndarray],
    depths: Sequence[int],
    mode: str,
) -> Dict[int, np.ndarray]:
    """Return the global (summed) histogram tables on every rank."""
    n_dims = next(iter(local.values())).shape[0]
    buf = np.concatenate([local[d].ravel() for d in depths])
    if mode == "ring":
        total = ring_allreduce(comm, buf, op=ReduceOp.SUM)
    elif mode == "allreduce":
        total = comm.allreduce(buf, op=ReduceOp.SUM)
    elif mode == "master":
        summed = comm.reduce(buf, op=ReduceOp.SUM, root=0)
        total = comm.bcast(summed, root=0)
    else:
        raise ValidationError(f"mode must be one of {CONSOLIDATION_MODES}")
    out: Dict[int, np.ndarray] = {}
    offset = 0
    for d in depths:
        size = n_dims * (1 << d)
        out[d] = total[offset : offset + size].reshape(n_dims, 1 << d)
        offset += size
    return out


def _union_tables(comm: Communicator, local: GlobalClusterTable) -> GlobalClusterTable:
    """Union of the occupied cells of every rank, on every rank."""
    tables = comm.gather((local.codes, local.sizes), root=0)
    payload = None
    if comm.rank == 0:
        merged = local
        for peer_codes, peer_sizes in tables[1:]:
            merged = merged.merge(GlobalClusterTable(peer_codes, peer_sizes))
        payload = (merged.codes, merged.sizes)
    codes, sizes = comm.bcast(payload, root=0)
    return GlobalClusterTable(codes, sizes)


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
    check_finite(x_local, "x_local")
    depth_spec = check_fit_options(n_projections, candidate_depths, projection, smoother)
    if consolidation not in CONSOLIDATION_MODES:
        raise ValidationError(f"consolidation must be one of {CONSOLIDATION_MODES}")
    n = x_local.shape[1]
    n_check = comm.allreduce(np.array([n, -n]), op=ReduceOp.MAX)
    if int(n_check[0]) != n or int(-n_check[1]) != n:
        raise ValidationError("all ranks must hold the same number of features")

    m_global = int(comm.allreduce(x_local.shape[0]))
    depths = resolve_depths(depth_spec, m_global)
    n_rp = resolve_components(n, n_components, projection_factor)
    overflowed: List[tuple] = []

    def best_of_trial(trial: int, rng) -> Optional[Candidate]:
        """One trial's selected candidate (None when every grid overflowed);
        its keys and the losing candidates' codes die with the call."""
        if projection == "none":
            matrix = None
            projected = x_local
        else:
            matrix = projection_matrix(n, n_rp, seed=rng, kind=projection)
            projected = project_points(x_local, matrix)

        local_bounds = np.stack([projected.min(axis=0), projected.max(axis=0)])
        space = SpaceRange.from_data(
            comm.allreduce(local_bounds, op=_merge_ranges), margin=range_margin
        )
        deep_bins, local_hist = depth_histograms(projected, space, depths)
        global_hist = _consolidate_histograms(comm, local_hist, depths, consolidation)
        if collapse:
            kept = collapse_dimensions(
                global_hist[depths[-1]],
                uniform_threshold=uniform_threshold,
                min_support_bins=min_support_bins,
            )
        else:
            kept = np.ones(projected.shape[1], dtype=bool)

        inputs = TrialHistograms(
            hist=global_hist, kept=kept, keys=deep_bins[:, kept], key_weights=None,
            matrix=matrix, space=space, n_points=m_global,
            meta={"trial": trial, "consolidation": consolidation, "ranks": comm.size},
        )
        candidates = candidate_models(
            [inputs], depths, overflowed,
            min_prominence=min_cut_prominence, smoother=smoother,
            union_table=lambda table: _union_tables(comm, table),
        )
        return select_best(candidates, overflowed) if candidates else None

    finalists: List[Candidate] = []
    for trial, rng in enumerate(spawn_generators(seed, n_projections)):
        best = best_of_trial(trial, rng)
        if best is not None:
            # Only the running best keeps its per-row codes.
            finalists = [select_best(finalists + [best], overflowed)]
    chosen = select_best(finalists, overflowed)
    return chosen.model.table.lookup(chosen.codes), chosen.model


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
    timeout: Optional[float] = 600.0,
    **params: Any,
) -> DistributedFitResult:
    """Fit KeyBin2 over pre-sharded data, one rank per shard.

    Convenience front-end for tests and benchmarks; real deployments call
    :func:`keybin2_spmd` directly from their own SPMD program (e.g. under
    ``mpiexec``).
    """
    shards = [np.asarray(s) for s in shards]
    if not shards:
        raise ValidationError("need at least one shard")
    results = run_spmd(
        _spmd_entry, len(shards), executor=executor,
        args=(list(shards), params), timeout=timeout,
    )
    labels = [r[0] for r in results]
    model = KeyBin2Model.from_dict(results[0][1])
    traffic = [r[2] for r in results]
    return DistributedFitResult(labels, model, traffic)

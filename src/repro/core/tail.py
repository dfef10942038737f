"""The histogram→model tail every fit path shares (paper §3, steps 4–6).

Batch, SPMD and streaming fits differ only in how they get their
histograms and keys. From there on the work is the same: partition each
kept dimension's histogram into primary clusters, map every key through
the cuts to its cell, score the occupied cells with the histogram CH
index (eqs. 2a–2c), and keep the best (projection, depth) candidate.

:func:`candidate_models` runs these steps phase by phase over every
(trial, depth) candidate at once:

1. *cuts* — the kept rows of every trial's deepest histogram are
   stacked once, each shallower depth's stack is an exact reshape-sum of
   that one (:func:`~repro.kernels.fused.prefix_histograms`), and one
   :func:`find_cuts` call per depth runs over its stack;
2. *cell tables* — :func:`cell_table` builds each candidate's table in
   one linear pass over its trial's dimension-major keys, and keeps no
   per-key codes;
3. *union* — the optional ``union_tables`` hook sees every candidate's
   table in one call (SPMD: one gather and one broadcast per fit);
4. *scores* — one interval-statistics pass per depth scores every
   trial's candidate (:func:`histogram_ch_scores`).

:func:`select_best` is the one selection rule. A caller that labels its
points computes the winner's codes once, after selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.assess import histogram_ch_scores
from repro.core.binning import SpaceRange
from repro.core.model import KeyBin2Model
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition, cell_space_error
from repro.kernels.fused import prefix_histograms
from repro.obs import trace

__all__ = ["TrialHistograms", "cell_table", "candidate_models", "select_best"]


@dataclass
class TrialHistograms:
    """One projection's inputs to the tail.

    Attributes
    ----------
    hist:
        (N_rp × 2^deepest) histogram over every projected dimension at the
        deepest candidate depth; the tail derives the shallower depths.
    kept:
        Boolean mask of the dimensions that survived collapsing.
    keys:
        (n_kept × K) deepest-depth bins of the kept dimensions, one
        contiguous row per dimension: one column per point (batch, SPMD)
        or per distinct key (streaming).
    key_weights:
        Points behind each key column, when the columns are distinct
        keys; ``None`` when every column is one point.
    matrix, space, n_points, meta:
        The model context: projection matrix, binning range, points behind
        the histograms and model bookkeeping (``meta["trial"]`` is the
        projection's index).
    """

    hist: np.ndarray
    kept: np.ndarray
    keys: np.ndarray
    key_weights: Optional[np.ndarray]
    matrix: Optional[np.ndarray]
    space: SpaceRange
    n_points: int
    meta: Dict[str, Any]


def cell_table(
    partition: PrimaryPartition,
    keys: np.ndarray,
    weights: Optional[np.ndarray],
    bin_depth: int,
) -> GlobalClusterTable:
    """The occupied cells of ``partition`` under (n_dims × K) ``keys``
    binned at ``bin_depth``, each weighted by ``weights`` (default 1).

    A grid of one cell needs no pass over the keys: its table is that
    cell holding the total weight.
    """
    if keys.size == 0:  # no keys survived (pathological key capacity)
        return GlobalClusterTable(np.empty(0, dtype=np.int64))
    if partition.n_cells == 1:
        total = keys.shape[1] if weights is None else int(weights.sum())
        return GlobalClusterTable(np.zeros(1, dtype=np.int64), np.array([total]))
    return GlobalClusterTable.from_points(
        partition.codes_for_bins(keys.T, bin_depth), weights
    )


def candidate_models(
    trials: Sequence[TrialHistograms],
    depths: Sequence[int],
    overflowed: List[tuple],
    min_prominence: float = 0.10,
    smoother: str = "ma",
    union_tables: Optional[
        Callable[[List[GlobalClusterTable]], List[GlobalClusterTable]]
    ] = None,
) -> List[KeyBin2Model]:
    """Every trial's scored candidate at every depth, in (trial, depth) order.

    ``depths`` is sorted; every trial's histogram and keys are binned at
    its deepest entry. Each depth is one stacked :func:`find_cuts` call
    over the kept rows of every trial (the window is the depth's
    ``sqrt(B)``). A candidate whose cell grid overflows int64 codes is
    skipped and recorded in ``overflowed`` as ``(trial, kept,
    partition)``. ``union_tables``, when given, replaces the list of every
    candidate's cell table before scoring (the SPMD union of occupied
    cells across ranks); it is called once, with the same candidates on
    every rank.
    """
    deepest = depths[-1]
    bounds = np.cumsum([0] + [int(t.kept.sum()) for t in trials])
    stacks = prefix_histograms(
        np.concatenate([t.hist[t.kept] for t in trials]), depths
    )
    cuts: Dict[int, list] = {}
    partitions: Dict[tuple, PrimaryPartition] = {}
    for d in depths:
        with trace.span("cuts"):
            # The window depends only on the bin count, so one call
            # serves every trial.
            cuts[d] = find_cuts(
                stacks[d],
                min_prominence=min_prominence,
                smoother=smoother,
            )
            for i, t in enumerate(trials):
                partition = PrimaryPartition(d, cuts[d][bounds[i]:bounds[i + 1]])
                if partition.codes_fit:
                    partitions[d, i] = partition
                else:
                    overflowed.append((t.meta["trial"], t.kept, partition))
    tables: List[GlobalClusterTable] = []
    for d in depths:
        with trace.span("cell_table"):
            tables += [
                cell_table(p, trials[i].keys, trials[i].key_weights, deepest)
                for (dd, i), p in partitions.items() if dd == d
            ]
    if union_tables is not None:
        with trace.span("union"):
            tables = union_tables(tables)
    table_of = dict(zip(partitions, tables))
    found: Dict[tuple, KeyBin2Model] = {}
    for d in depths:
        with trace.span("score"):
            here = [i for dd, i in partitions if dd == d]
            scores = histogram_ch_scores(
                stacks[d], cuts[d], [bounds[i] for i in here],
                [partitions[d, i].decode_cells(table_of[d, i].codes) for i in here],
            )
            for i, score in zip(here, scores):
                t = trials[i]
                found[i, d] = KeyBin2Model(
                    projection=t.matrix,
                    space=t.space,
                    partition=partitions[d, i],
                    kept_dims=t.kept,
                    table=table_of[d, i],
                    score=score,
                    depth=d,
                    n_points_fit=t.n_points,
                    meta=dict(t.meta),
                )
    return [found[key] for key in sorted(found)]


def select_best(
    candidates: Sequence[KeyBin2Model], overflowed: Sequence[tuple]
) -> KeyBin2Model:
    """The one selection rule: the highest-scoring multi-cluster candidate,
    the first in order on ties; the first candidate when none has two
    clusters. With no candidates at all, raises the cell-space error
    naming every skipped grid in ``overflowed``.
    """
    if not candidates:
        raise cell_space_error(overflowed)
    best: Optional[KeyBin2Model] = None
    for model in candidates:
        if model.n_clusters >= 2 and (best is None or model.score > best.score):
            best = model
    return best if best is not None else candidates[0]

"""The histogram→model tail every fit path shares (paper §3, steps 4–6).

Batch, SPMD and streaming fits differ only in how they get their
histograms and keys. From there on the work is the same: partition each
kept dimension's histogram into primary clusters, map every key through
the cuts to its cell, score the occupied cells with the histogram CH
index (eqs. 2a–2c), and keep the best (projection, depth) candidate.

:func:`candidate_models` does the first three steps for any number of
trials at once, with one stacked :func:`find_cuts` call per depth;
:func:`select_best` is the one selection rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.model import KeyBin2Model
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition, cell_space_error
from repro.obs import trace

__all__ = ["TrialHistograms", "Candidate", "candidate_models", "select_best"]


@dataclass
class TrialHistograms:
    """One projection's inputs to the tail.

    Attributes
    ----------
    hist:
        Depth → (N_rp × 2^depth) histogram over every projected dimension.
    kept:
        Boolean mask of the dimensions that survived collapsing.
    keys:
        (K × n_kept) deepest-depth bins of the kept dimensions: one row
        per point (batch, SPMD) or per distinct key (streaming).
    key_weights:
        Points behind each key row, when the rows are distinct keys;
        ``None`` when every row is one point.
    matrix, space, n_points, meta:
        The model context: projection matrix, binning range, points behind
        the histograms and model bookkeeping (``meta["trial"]`` is the
        projection's index).
    """

    hist: Dict[int, np.ndarray]
    kept: np.ndarray
    keys: np.ndarray
    key_weights: Optional[np.ndarray]
    matrix: Optional[np.ndarray]
    space: SpaceRange
    n_points: int
    meta: Dict[str, Any]


@dataclass
class Candidate:
    """A scored (projection, depth) model and the cell code of every key row.

    Codes are kept only when the rows are points (``key_weights`` is
    ``None``), whose labels the caller reads from them; weighted rows are
    distinct keys, which nothing labels, so their codes are dropped once
    the table is built.
    """

    model: KeyBin2Model
    codes: Optional[np.ndarray]


def candidate_models(
    trials: Sequence[TrialHistograms],
    depths: Sequence[int],
    overflowed: List[tuple],
    min_prominence: float = 0.10,
    smoother: str = "ma",
    union_table: Optional[Callable[[GlobalClusterTable], GlobalClusterTable]] = None,
) -> List[Candidate]:
    """Every trial's scored candidate at every depth, in (trial, depth) order.

    ``depths`` is sorted; keys are binned at its deepest entry. Each depth
    is one stacked :func:`find_cuts` call over the kept rows of every
    trial, with the window of the largest ``n_points``. A candidate whose
    cell grid overflows int64 codes is skipped and recorded in
    ``overflowed`` as ``(trial, kept, partition)``. ``union_table``, when
    given, replaces each cell table before scoring (the SPMD union of
    occupied cells across ranks); it runs in the same order on every rank.
    """
    deepest = depths[-1]
    bounds = np.cumsum([0] + [int(t.kept.sum()) for t in trials])
    found: Dict[tuple, Candidate] = {}
    for d in depths:
        with trace.span("cuts"):
            # The window depends only on the bin count and the point
            # count, so one call serves every trial.
            cuts = find_cuts(
                np.concatenate([t.hist[d][t.kept] for t in trials]),
                n_points=max(t.n_points for t in trials),
                min_prominence=min_prominence,
                smoother=smoother,
            )
        with trace.span("cell_table"):
            tables = {}
            for i, t in enumerate(trials):
                partition = PrimaryPartition(d, cuts[bounds[i]:bounds[i + 1]])
                if not partition.codes_fit:
                    overflowed.append((t.meta["trial"], t.kept, partition))
                    continue
                if t.keys.size:
                    codes = partition.codes_for_bins(t.keys, deepest)
                    table = GlobalClusterTable.from_points(codes, t.key_weights)
                else:  # no keys survived (pathological key capacity)
                    codes = np.empty(0, dtype=np.int64)
                    table = GlobalClusterTable(codes)
                if union_table is not None:
                    table = union_table(table)
                tables[i] = (partition, table, codes if t.key_weights is None else None)
        with trace.span("score"):
            for i, (partition, table, codes) in tables.items():
                t = trials[i]
                score = histogram_ch_index(
                    t.hist[d][t.kept],
                    partition.cuts,
                    partition.decode_cells(table.codes),
                )
                model = KeyBin2Model(
                    projection=t.matrix,
                    space=t.space,
                    partition=partition,
                    kept_dims=t.kept,
                    table=table,
                    score=score,
                    depth=d,
                    n_points_fit=t.n_points,
                    meta=dict(t.meta),
                )
                found[i, d] = Candidate(model, codes)
    return [found[key] for key in sorted(found)]


def select_best(candidates: Sequence[Candidate], overflowed: Sequence[tuple]) -> Candidate:
    """The one selection rule: the highest-scoring multi-cluster candidate,
    the first in order on ties; the first candidate when none has two
    clusters. With no candidates at all, raises the cell-space error
    naming every skipped grid in ``overflowed``.
    """
    if not candidates:
        raise cell_space_error(overflowed)
    best: Optional[Candidate] = None
    for cand in candidates:
        if cand.model.n_clusters >= 2 and (
            best is None or cand.model.score > best.model.score
        ):
            best = cand
    return best if best is not None else candidates[0]

"""The KeyBin2 estimator (paper §3, steps 1–6).

Non-parametric: the number of clusters is *discovered*, not supplied. The
bootstrap loop draws ``n_projections`` random projections; each trial bins
the projected data hierarchically, collapses uninformative dimensions,
finds cuts at every candidate depth, and scores the induced clustering with
the histogram-space Calinski–Harabasz index. The best (projection, depth)
pair becomes the fitted model.

Example
-------
>>> from repro import KeyBin2
>>> from repro.data import gaussian_mixture
>>> X, y = gaussian_mixture(n_points=2000, n_dims=16, n_clusters=4, seed=0)
>>> kb = KeyBin2(seed=0).fit(X)
>>> kb.n_clusters_ >= 4
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.collapse import collapse_dimensions
from repro.core.model import KeyBin2Model
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition, cell_space_error
from repro.core.projection import projection_matrix, target_dimension, PROJECTION_KINDS
from repro.errors import NotFittedError, ValidationError
from repro.kernels.engine import KernelEngine
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.keys import bin_indices, prefix_bins
from repro.kernels.project import project_points
from repro.util.rng import SeedLike, spawn_generators
from repro.util.validation import check_array_2d, check_finite

__all__ = ["KeyBin2", "TrialResult"]


@dataclass
class TrialResult:
    """Summary of one bootstrap trial (one random projection)."""

    trial: int
    depth: int
    score: float
    n_clusters: int
    n_kept_dims: int


class KeyBin2:
    """Key-based binning clusterer with random projections and bootstrapping.

    Parameters
    ----------
    n_projections:
        Bootstrap trials ``t`` — how many random projections to assess.
    n_components:
        Projected dimensionality ``N_rp``. ``None`` applies the paper rule
        ``1.5·log(N)``.
    candidate_depths:
        Bin-tree depths to evaluate; the paper observes depths 2–4 suffice
        for convex problems. Default ``(3, 4, 5, 6)``. The string
        ``"auto"`` applies the paper's bin-count rule ``B = log2²(M)``:
        the deepest candidate is ``ceil(log2(log2²(M)))`` with the three
        shallower depths below it (resolved at fit time from M).
    projection:
        ``"gaussian"`` | ``"sparse"`` | ``"orthonormal"`` | ``"none"``.
        ``"none"`` clusters in the original space (KeyBin1-style; only
        sensible for small N).
    range_margin:
        Fractional padding applied to the measured projected range.
    collapse:
        Whether to drop uninformative dimensions (KS test, §3.1).
    uniform_threshold, min_support_bins:
        Collapse-test knobs, see :func:`repro.core.collapse.collapse_dimensions`.
    min_cut_prominence:
        Relative valley prominence for a cut, see
        :func:`repro.core.partitioning.find_cuts`.
    min_cluster_fraction:
        Cells holding less than this fraction of points are dropped from the
        cluster table; their points become noise (``-1``). ``0`` keeps every
        occupied cell (the paper's behaviour — it reports extra small
        clusters rather than hiding them).
    smoother:
        Histogram smoother for the partitioner: ``"ma"`` (paper's moving
        average + local regression) or ``"kde"`` (Gaussian KDE — the
        costlier alternative §3.2 benchmarks against).
    simultaneous_projections:
        Apply §3.4's optimization: stack all bootstrap projection matrices
        into a single GEMM so the data is read once instead of ``t`` times.
        Identical results, better throughput for large ``M``.
    seed:
        Seed / Generator for reproducibility.
    engine:
        Optional :class:`~repro.kernels.engine.KernelEngine` (chunked
        execution); default processes each array in one launch.

    Attributes (after fit)
    ----------------------
    model_:            the accepted :class:`~repro.core.model.KeyBin2Model`
    labels_:           training labels (−1 = dropped tiny cell)
    n_clusters_:       cluster count of the accepted model
    score_:            its histogram-space CH score
    trials_:           per-trial :class:`TrialResult` list
    n_features_in_:    original dimensionality
    """

    def __init__(
        self,
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
        min_cluster_fraction: float = 0.0,
        smoother: str = "ma",
        simultaneous_projections: bool = False,
        seed: SeedLike = None,
        engine: Optional[KernelEngine] = None,
    ):
        if projection not in PROJECTION_KINDS + ("none",):
            raise ValidationError(
                f"projection must be one of {PROJECTION_KINDS + ('none',)}"
            )
        if smoother not in ("ma", "kde"):
            raise ValidationError("smoother must be 'ma' or 'kde'")
        if n_projections < 1:
            raise ValidationError("n_projections must be >= 1")
        if not (0.0 <= min_cluster_fraction < 1.0):
            raise ValidationError("min_cluster_fraction must be in [0, 1)")
        self.n_projections = int(n_projections)
        self.n_components = n_components
        if isinstance(candidate_depths, str):
            if candidate_depths != "auto":
                raise ValidationError(
                    "candidate_depths must be a depth sequence or 'auto'"
                )
            self.candidate_depths = "auto"
        else:
            if not candidate_depths:
                raise ValidationError("candidate_depths must be non-empty")
            self.candidate_depths = tuple(
                sorted(set(int(d) for d in candidate_depths))
            )
        self.projection = projection
        self.projection_factor = float(projection_factor)
        self.range_margin = float(range_margin)
        self.collapse = bool(collapse)
        self.uniform_threshold = float(uniform_threshold)
        self.min_support_bins = int(min_support_bins)
        self.min_cut_prominence = float(min_cut_prominence)
        self.min_cluster_fraction = float(min_cluster_fraction)
        self.smoother = smoother
        self.simultaneous_projections = bool(simultaneous_projections)
        self.seed = seed
        self.engine = engine

        self.model_: Optional[KeyBin2Model] = None
        self.labels_: Optional[np.ndarray] = None
        self.trials_: List[TrialResult] = []

    # -- fitting -----------------------------------------------------------------

    def fit(self, x: np.ndarray) -> "KeyBin2":
        """Learn a clustering of ``x`` (M × N)."""
        x = check_array_2d(x, "X", min_rows=2)
        check_finite(x, "X")
        m, n = x.shape
        self.n_features_in_ = n
        self._resolved_depths = resolve_depths(self.candidate_depths, m)
        rngs = spawn_generators(self.seed, self.n_projections)

        best: Optional[Dict[str, Any]] = None
        fallback: Optional[Dict[str, Any]] = None
        self.trials_ = []

        precomputed = self._project_all_trials(x, rngs)
        overflowed: List[tuple] = []

        for t, rng in enumerate(rngs):
            outcome = self._run_trial(
                x, t, rng, overflowed,
                precomputed=None if precomputed is None else precomputed[t],
            )
            if outcome is None:  # every depth's grid overflowed int64 codes
                continue
            self.trials_.append(
                TrialResult(
                    trial=t,
                    depth=outcome["depth"],
                    score=outcome["score"],
                    n_clusters=outcome["n_clusters"],
                    n_kept_dims=outcome["n_kept_dims"],
                )
            )
            if outcome["n_clusters"] >= 2:
                if best is None or outcome["score"] > best["score"]:
                    best = outcome
            elif fallback is None:
                fallback = outcome

        chosen = best if best is not None else fallback
        if chosen is None:
            raise cell_space_error(overflowed)
        self.model_ = chosen["model"]
        self.labels_ = chosen["model"].table.lookup(chosen["codes"])
        self.score_ = chosen["score"]
        self.n_clusters_ = chosen["n_clusters"]
        return self

    def _target_components(self, n: int) -> int:
        n_rp = (
            target_dimension(n, factor=self.projection_factor)
            if self.n_components is None
            else int(self.n_components)
        )
        return min(max(n_rp, 1), n)

    def _project_all_trials(self, x: np.ndarray, rngs) -> Optional[list]:
        """§3.4's optimization: stack all trial matrices into one GEMM.

        One (N × t·N_rp) multiplication replaces t separate projections —
        the data is read once instead of t times. Returns a per-trial list
        of ``(matrix, projected)`` pairs, or ``None`` when disabled.
        """
        if not self.simultaneous_projections or self.projection == "none":
            return None
        n = x.shape[1]
        n_rp = self._target_components(n)
        matrices = [
            projection_matrix(n, n_rp, seed=rng, kind=self.projection)
            for rng in rngs
        ]
        stacked = np.hstack(matrices)
        projected_all = project_points(x, stacked, engine=self.engine)
        return [
            (matrices[t], projected_all[:, t * n_rp : (t + 1) * n_rp])
            for t in range(len(rngs))
        ]

    def _run_trial(
        self, x: np.ndarray, trial: int, rng, overflowed: List[tuple],
        precomputed=None,
    ) -> Optional[Dict[str, Any]]:
        """One bootstrap trial: project, bin, collapse, cut, score.

        Returns the trial's best candidate, or ``None`` when no depth's
        cell grid fits int64 codes; skipped candidates are appended to
        ``overflowed``.
        """
        m, n = x.shape
        if precomputed is not None:
            matrix, projected = precomputed
        elif self.projection == "none":
            matrix = None
            projected = x
        else:
            n_rp = self._target_components(n)
            matrix = projection_matrix(n, n_rp, seed=rng, kind=self.projection)
            projected = project_points(x, matrix, engine=self.engine)

        space = SpaceRange.from_data(projected, margin=self.range_margin)
        depths = self._resolved_depths
        deepest = depths[-1]
        deep_bins = bin_indices(
            projected, space.r_min, space.r_max, deepest, engine=self.engine
        )

        # Histograms at every candidate depth from the single deep binning.
        counts_by_depth = {}
        for d in depths:
            b = deep_bins if d == deepest else prefix_bins(deep_bins, deepest, d)
            counts_by_depth[d] = accumulate_histogram(b, 1 << d, engine=self.engine)

        if self.collapse:
            kept = collapse_dimensions(
                counts_by_depth[deepest],
                uniform_threshold=self.uniform_threshold,
                min_support_bins=self.min_support_bins,
            )
        else:
            kept = np.ones(projected.shape[1], dtype=bool)

        kept_bins = deep_bins[:, kept]
        best_for_trial: Optional[Dict[str, Any]] = None
        for d in depths:
            counts_kept = counts_by_depth[d][kept]
            partition = PrimaryPartition(
                d,
                find_cuts(
                    counts_kept,
                    n_points=m,
                    min_prominence=self.min_cut_prominence,
                    smoother=self.smoother,
                ),
            )
            if not partition.codes_fit:
                overflowed.append((trial, kept, partition))
                continue
            codes = partition.codes_for_bins(kept_bins, deepest)
            table = GlobalClusterTable.from_points(codes)
            if self.min_cluster_fraction > 0.0 and table.n_clusters > 1:
                min_size = int(np.ceil(self.min_cluster_fraction * m))
                keep_cells = table.sizes >= min_size
                if keep_cells.any():
                    table = GlobalClusterTable(
                        table.codes[keep_cells], table.sizes[keep_cells]
                    )
            cell_intervals = partition.decode_cells(table.codes)
            score = histogram_ch_index(counts_kept, partition.cuts, cell_intervals)
            candidate = {
                "model": KeyBin2Model(
                    projection=matrix,
                    space=space,
                    partition=partition,
                    kept_dims=kept,
                    table=table,
                    score=score,
                    depth=d,
                    n_points_fit=m,
                    meta={"trial": trial},
                ),
                "codes": codes,
                "score": score,
                "depth": d,
                "n_clusters": table.n_clusters,
                "n_kept_dims": int(kept.sum()),
            }
            if (
                best_for_trial is None
                or _score_key(candidate) > _score_key(best_for_trial)
            ):
                best_for_trial = candidate
        return best_for_trial

    # -- inference ------------------------------------------------------------------

    def _require_fitted(self) -> KeyBin2Model:
        if self.model_ is None:
            raise NotFittedError("KeyBin2 instance is not fitted; call fit() first")
        return self.model_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels for new points under the fitted model (−1 = unseen cell)."""
        return self._require_fitted().predict(x, engine=self.engine)

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        """Fit and return the training labels."""
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_


def resolve_depths(candidate_depths, n_points: int) -> tuple:
    """Resolve a depth specification against the data size.

    ``"auto"`` applies the paper's bin-count rule ``B = log2²(M)``: the
    deepest candidate is ``ceil(log2(log2²(M)))`` (clamped to [3, 12]),
    with three shallower depths below it. Sequences pass through.
    """
    if candidate_depths == "auto":
        import math

        log2m = math.log2(max(n_points, 4))
        deepest = int(min(max(math.ceil(math.log2(log2m ** 2)), 3), 12))
        shallowest = max(2, deepest - 3)
        return tuple(range(shallowest, deepest + 1))
    return tuple(candidate_depths)


def _score_key(candidate: Dict[str, Any]) -> tuple:
    """Ordering for trial candidates: multi-cluster beats single-cluster,
    then higher CH score wins."""
    multi = candidate["n_clusters"] >= 2
    return (multi, candidate["score"])

"""The KeyBin2 estimator (paper §3, steps 1–6).

Non-parametric: the number of clusters is *discovered*, not supplied. The
bootstrap loop draws ``n_projections`` random projections; each trial bins
the projected data hierarchically, collapses uninformative dimensions,
finds cuts at every candidate depth, and scores the induced clustering with
the histogram-space Calinski–Harabasz index. The best (projection, depth)
pair becomes the fitted model.

Ingest follows §3.4's simultaneous projections: every trial's matrix is
stacked into one GEMM, so the data is read once for all trials — one
pass for the ranges (:func:`~repro.kernels.fused.projected_bounds`), one
fused pass that bins, histograms and keeps each point's deep bins
(:func:`~repro.kernels.fused.fused_bin_points`). The SPMD driver
(:mod:`repro.core.distributed`) runs the same fit on each rank's shard,
with collectives between those passes.

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
from itertools import groupby
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.binning import SpaceRange
from repro.core.collapse import collapse_dimensions
from repro.core.model import KeyBin2Model
from repro.core.primary import GlobalClusterTable
from repro.core.projection import PROJECTION_KINDS, trial_matrices
from repro.core.tail import TrialHistograms, candidate_models, select_best
from repro.errors import NotFittedError, ValidationError
from repro.kernels.fused import (
    MAX_POINT_DEPTH,
    FusedStateSpec,
    fused_bin_points,
    prefix_histograms,
    projected_bounds,
)
from repro.util.rng import SeedLike
from repro.util.validation import check_array_2d

__all__ = ["KeyBin2", "TrialResult"]


def _unchanged(value):
    """A one-process fit's collective: the local value is the global one."""
    return value


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
        Bin-tree depths to evaluate, each in [1, 16]; the paper observes
        depths 2–4 suffice for convex problems. Default ``(3, 4, 5, 6)``.
        The string ``"auto"`` applies the paper's bin-count rule
        ``B = log2²(M)``: the deepest candidate is ``ceil(log2(log2²(M)))``
        with the three shallower depths below it (resolved at fit time
        from M).
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
    smoother:
        Histogram smoother for the partitioner: ``"ma"`` (paper's moving
        average + local regression) or ``"kde"`` (Gaussian KDE — the
        costlier alternative §3.2 benchmarks against).
    seed:
        Seed / Generator for reproducibility.

    Attributes (after fit)
    ----------------------
    model_:            the accepted :class:`~repro.core.model.KeyBin2Model`
    labels_:           training labels
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
        smoother: str = "ma",
        seed: SeedLike = None,
    ):
        self.candidate_depths = check_fit_options(
            n_projections, candidate_depths, projection, smoother
        )
        self.n_projections = int(n_projections)
        self.n_components = n_components
        self.projection = projection
        self.projection_factor = float(projection_factor)
        self.range_margin = float(range_margin)
        self.collapse = bool(collapse)
        self.uniform_threshold = float(uniform_threshold)
        self.min_support_bins = int(min_support_bins)
        self.min_cut_prominence = float(min_cut_prominence)
        self.smoother = smoother
        self.seed = seed

        self.model_: Optional[KeyBin2Model] = None
        self.labels_: Optional[np.ndarray] = None
        self.trials_: List[TrialResult] = []

    # -- fitting -----------------------------------------------------------------

    def fit(self, x: np.ndarray) -> "KeyBin2":
        """Learn a clustering of ``x`` (M × N)."""
        x = check_array_2d(x, "X", min_rows=2)
        self.n_features_in_ = x.shape[1]
        self.model_, self.labels_, self.trials_ = self._fit_trials(x, x.shape[0])
        self.score_ = self.model_.score
        self.n_clusters_ = self.model_.n_clusters
        return self

    def _fit_trials(
        self,
        x: np.ndarray,
        n_points: int,
        merge_bounds: Callable[[List[np.ndarray]], List[np.ndarray]] = _unchanged,
        merge_tables: Callable[[List[np.ndarray]], List[np.ndarray]] = _unchanged,
        union_tables: Optional[
            Callable[[List[GlobalClusterTable]], List[GlobalClusterTable]]
        ] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Tuple[KeyBin2Model, np.ndarray, List[TrialResult]]:
        """Fit every bootstrap trial over ``x``; return the selected model,
        the labels of ``x`` under it and the per-trial summaries.

        Batch and SPMD fits both run this; SPMD passes its collectives as
        the three hooks, and ``x`` is then one rank's shard of the
        ``n_points`` rows:

        1. one stacked-GEMM pass measures every trial's projected bounds
           (§3.4: the data is read once for all trials); ``merge_bounds``
           reduces the list of (2 × N_rp) [min; max] arrays, and each
           trial's range is padded by ``range_margin`` once;
        2. one fused pass bins every trial at the deepest depth, keeping
           each point's deep bins and the deepest histogram;
           ``merge_tables`` sums the list of deepest tables, and the
           shallower depths are reshape-sums of it;
        3. per trial, collapse; then one call of the shared tail for every
           trial, where ``union_tables`` merges every candidate's cell
           table at once. Candidates keep no per-point codes: only the
           winner's are computed, once, to label ``x``.
        """
        depths = resolve_depths(self.candidate_depths, n_points)
        self._resolved_depths = depths
        matrices = trial_matrices(
            x.shape[1], self.n_projections, self.seed, self.projection,
            self.n_components, self.projection_factor,
        )
        spaces = [
            SpaceRange.from_data(bounds, margin=self.range_margin)
            for bounds in merge_bounds(projected_bounds(x, matrices))
        ]
        points = fused_bin_points(x, [
            FusedStateSpec(m, s.r_min, s.r_max, depths)
            for m, s in zip(matrices, spaces)
        ])
        deep_tables = merge_tables([p.deep for p in points])

        inputs: List[TrialHistograms] = []
        for t in range(len(matrices)):
            hist = prefix_histograms(deep_tables[t], depths)
            if self.collapse:
                kept = collapse_dimensions(
                    hist[depths[-1]],
                    uniform_threshold=self.uniform_threshold,
                    min_support_bins=self.min_support_bins,
                )
            else:
                kept = np.ones(hist[depths[-1]].shape[0], dtype=bool)
            # The trial's keys are the deep bins of its kept dimensions,
            # one column per point; its other bins die here.
            inputs.append(TrialHistograms(
                hist=hist, kept=kept, keys=points[t].rows[kept], key_weights=None,
                matrix=matrices[t], space=spaces[t], n_points=n_points,
                meta={"trial": t, **(meta or {})},
            ))
            points[t] = None
        overflowed: List[tuple] = []
        candidates = candidate_models(
            inputs, depths, overflowed,
            min_prominence=self.min_cut_prominence, smoother=self.smoother,
            union_tables=union_tables,
        )
        best = select_best(candidates, overflowed)
        trials = []
        for t, models in groupby(candidates, key=lambda m: m.meta["trial"]):
            model = select_best(list(models), overflowed)
            trials.append(TrialResult(
                trial=t,
                depth=model.depth,
                score=model.score,
                n_clusters=model.n_clusters,
                n_kept_dims=int(model.kept_dims.sum()),
            ))
        keys = inputs[best.meta["trial"]].keys
        labels = best.table.lookup(best.partition.codes_for_bins(keys.T, depths[-1]))
        return best, labels, trials

    # -- inference ------------------------------------------------------------------

    def _require_fitted(self) -> KeyBin2Model:
        if self.model_ is None:
            raise NotFittedError("KeyBin2 instance is not fitted; call fit() first")
        return self.model_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels for new points under the fitted model (−1 = unseen cell)."""
        return self._require_fitted().predict(x)

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        """Fit and return the training labels."""
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_


def check_fit_options(n_projections: int, candidate_depths, projection: str,
                      smoother: str):
    """Validate the options batch and SPMD fits share; return the depth
    specification normalized (``"auto"``, or sorted unique depths)."""
    if projection not in PROJECTION_KINDS + ("none",):
        raise ValidationError(
            f"projection must be one of {PROJECTION_KINDS + ('none',)}"
        )
    if smoother not in ("ma", "kde"):
        raise ValidationError("smoother must be 'ma' or 'kde'")
    if n_projections < 1:
        raise ValidationError("n_projections must be >= 1")
    if isinstance(candidate_depths, str):
        if candidate_depths != "auto":
            raise ValidationError(
                "candidate_depths must be a depth sequence or 'auto'"
            )
        return "auto"
    if not candidate_depths:
        raise ValidationError("candidate_depths must be non-empty")
    depths = tuple(sorted(set(int(d) for d in candidate_depths)))
    if depths[0] < 1 or depths[-1] > MAX_POINT_DEPTH:
        raise ValidationError(
            f"candidate_depths must lie in [1, {MAX_POINT_DEPTH}] (deep bins "
            f"are stored as uint16), got {depths}"
        )
    return depths


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

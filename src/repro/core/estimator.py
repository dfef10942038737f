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
from typing import List, Optional, Sequence

import numpy as np

from repro.core.binning import SpaceRange
from repro.core.collapse import collapse_dimensions
from repro.core.model import KeyBin2Model
from repro.core.projection import PROJECTION_KINDS, projection_matrix, resolve_components
from repro.core.tail import Candidate, TrialHistograms, candidate_models, select_best
from repro.errors import NotFittedError, ValidationError
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
        simultaneous_projections: bool = False,
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
        self.simultaneous_projections = bool(simultaneous_projections)
        self.seed = seed

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
        precomputed = self._project_all_trials(x, rngs)
        self.trials_ = []
        overflowed: List[tuple] = []
        finalists: List[Candidate] = []
        for t, rng in enumerate(rngs):
            best = self._best_of_trial(
                x, t, rng, overflowed,
                None if precomputed is None else precomputed[t],
            )
            if best is None:  # every depth's grid overflowed int64 codes
                continue
            model = best.model
            self.trials_.append(
                TrialResult(
                    trial=t,
                    depth=model.depth,
                    score=model.score,
                    n_clusters=model.n_clusters,
                    n_kept_dims=int(model.kept_dims.sum()),
                )
            )
            # Only the running best keeps its per-point codes: holding every
            # trial's until the end would cost O(t·M) memory.
            finalists = [select_best(finalists + [best], overflowed)]
        chosen = select_best(finalists, overflowed)
        self.model_ = chosen.model
        self.labels_ = chosen.model.table.lookup(chosen.codes)
        self.score_ = chosen.model.score
        self.n_clusters_ = chosen.model.n_clusters
        return self

    def _target_components(self, n: int) -> int:
        return resolve_components(n, self.n_components, self.projection_factor)

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
        projected_all = project_points(x, np.hstack(matrices))
        return [
            (matrices[t], projected_all[:, t * n_rp : (t + 1) * n_rp])
            for t in range(len(rngs))
        ]

    def _best_of_trial(
        self, x: np.ndarray, trial: int, rng, overflowed: List[tuple],
        precomputed=None,
    ) -> Optional[Candidate]:
        """One bootstrap trial: project, bin, histogram, collapse, then the
        shared tail. Returns the trial's selected candidate, or ``None``
        when every depth's grid overflowed (recorded in ``overflowed``).

        The keys are the deep bins of the kept dimensions, one row per
        point; they and the losing candidates' codes die with this call.
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
            projected = project_points(x, matrix)

        space = SpaceRange.from_data(projected, margin=self.range_margin)
        depths = self._resolved_depths
        deep_bins, hist = depth_histograms(projected, space, depths)
        if self.collapse:
            kept = collapse_dimensions(
                hist[depths[-1]],
                uniform_threshold=self.uniform_threshold,
                min_support_bins=self.min_support_bins,
            )
        else:
            kept = np.ones(projected.shape[1], dtype=bool)
        inputs = TrialHistograms(
            hist=hist, kept=kept, keys=deep_bins[:, kept], key_weights=None,
            matrix=matrix, space=space, n_points=m, meta={"trial": trial},
        )
        candidates = candidate_models(
            [inputs], depths, overflowed,
            min_prominence=self.min_cut_prominence, smoother=self.smoother,
        )
        return select_best(candidates, overflowed) if candidates else None

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
    return tuple(sorted(set(int(d) for d in candidate_depths)))


def depth_histograms(projected: np.ndarray, space: SpaceRange, depths: Sequence[int]):
    """Deepest bins of ``projected`` and its histogram at every depth.

    One binning pass at the deepest depth; shallower histograms count its
    prefix shifts, one depth at a time.
    """
    deepest = depths[-1]
    deep = bin_indices(projected, space.r_min, space.r_max, deepest)
    hist = {
        d: accumulate_histogram(
            deep if d == deepest else prefix_bins(deep, deepest, d), 1 << d
        )
        for d in depths
    }
    return deep, hist


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

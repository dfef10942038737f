"""End-to-end in-situ analysis pipeline (paper §5).

Couples a (simulated) running molecular-dynamics trajectory to streaming
KeyBin2 exactly as an in-situ deployment would:

1. the simulation produces frames in chunks (no global view ever exists),
2. each chunk is Ramachandran-encoded and fed to
   :class:`~repro.core.streaming.StreamingKeyBin2` (``partial_fit``),
3. the model refreshes periodically; frames are labeled online with the
   model available *at that time* (late chunks relabel nothing),
4. afterwards, fingerprints are computed from the online labels, and —
   offline, for validation only — the paper's probabilistic stability
   analysis (eqs. 3–4) produces metastable segments to compare against.

Because our trajectories are synthetic, the pipeline also reports
agreement between online fingerprint structure and the *ground-truth*
phases, a quantitative check the paper could not run on MoDEL data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.streaming import StreamingKeyBin2
from repro.errors import ValidationError
from repro.insitu.fingerprint import fingerprint_change_points, window_fingerprints
from repro.insitu.segments import Segment, extract_segments, segment_frame_labels
from repro.insitu.stability import (
    label_probabilities,
    stability_decisions,
    stability_scores,
)
from repro.metrics.external import normalized_mutual_info
from repro.obs import trace
from repro.proteins.encode import encode_frames
from repro.proteins.rmsd import rmsd_time_series, select_representatives
from repro.proteins.trajectory import Trajectory
from repro.util.rng import SeedLike

__all__ = ["InSituPipeline", "InSituResult"]

#: Eq. 4's stability margin ``w``: the best representative's score must
#: beat the runner-up's by this much for a frame to count as stable.
STABILITY_THRESHOLD = 0.05


@dataclass
class InSituResult:
    """Everything the pipeline produces for one trajectory."""

    labels: np.ndarray                 # online per-frame cluster labels
    fingerprints: list                 # per-frame fingerprint sets
    fingerprint_changes: np.ndarray    # detected change frames
    segments: List[Segment]            # offline metastable segments (eqs 3-4)
    stable_mask: np.ndarray            # per-frame stability decision
    stability_labels: np.ndarray       # per-frame winning representative
    n_clusters: int
    phase_nmi: Optional[float] = None  # labels vs ground-truth phases
    segment_nmi: Optional[float] = None  # offline segments vs ground truth
    timings: Dict[str, float] = field(default_factory=dict)


class InSituPipeline:
    """Configurable in-situ analysis run.

    Parameters
    ----------
    chunk_size:
        Frames delivered per simulation step (the in-situ batch).
    refresh_every:
        Chunks between model refreshes ("histograms are communicated
        periodically").
    n_representatives:
        Representatives for the offline stability validation.
    keybin_params:
        Extra keyword arguments for :class:`StreamingKeyBin2`.
    """

    def __init__(
        self,
        chunk_size: int = 250,
        refresh_every: int = 4,
        n_representatives: int = 8,
        seed: SeedLike = 0,
        **keybin_params,
    ):
        if chunk_size < 1 or refresh_every < 1:
            raise ValidationError("chunk_size and refresh_every must be >= 1")
        self.chunk_size = int(chunk_size)
        self.refresh_every = int(refresh_every)
        self.n_representatives = int(n_representatives)
        self.seed = seed
        self.keybin_params = dict(keybin_params)

    def run(self, trajectory: Trajectory) -> InSituResult:
        """Analyze one trajectory end to end.

        Each stage runs under an obs phase span (``insitu/encode``, …), so
        the result's ``timings`` dict and the telemetry registry report the
        same wall-clock numbers.
        """
        with trace.propagate(("insitu",)):
            return self._run(trajectory)

    def _run(self, trajectory: Trajectory) -> InSituResult:
        import time

        # timings is part of the result API and must stay accurate even
        # when the obs registry is disabled (spans no-op then), so each
        # stage is clocked explicitly alongside its span.
        timings: Dict[str, float] = {}

        t0 = time.perf_counter()
        with trace.span("encode"):
            features = encode_frames(trajectory.angles)
        timings["encode"] = time.perf_counter() - t0

        # --- online clustering (the in-situ part) --------------------------
        # Streaming accumulates histograms and keys chunk by chunk; per the
        # paper, points' keys await the *final* clustering assignment, so
        # once the last consolidation lands the whole trajectory is labeled
        # through the final partition (an O(M) key lookup, no re-clustering).
        t0 = time.perf_counter()
        with trace.span("cluster"):
            params = {
                # Secondary-structure codes are known a priori to lie in
                # [0, 6] (the paper's "predetermined space range") —
                # essential because a folding stream's first chunk visits
                # only the first phase.
                "feature_range": (0.0, 6.0),
                # Deeper bins: the known range is wider than any single
                # phase's spread, so extra resolution is needed to
                # separate phases.
                "candidate_depths": (5, 6, 7, 8),
            }
            params.update(self.keybin_params)
            skb = StreamingKeyBin2(seed=self.seed, **params)
            n_frames = features.shape[0]
            chunk_idx = 0
            for start in range(0, n_frames, self.chunk_size):
                stop = min(start + self.chunk_size, n_frames)
                skb.partial_fit(features[start:stop])
                chunk_idx += 1
                if chunk_idx % self.refresh_every == 0:
                    skb.refresh()  # periodic consolidation (checkpoints)
            skb.refresh()
            with trace.span("label_frames"):
                labels = skb.predict(features)
        timings["cluster"] = time.perf_counter() - t0

        # --- fingerprints ----------------------------------------------------
        t0 = time.perf_counter()
        with trace.span("fingerprint"):
            prints = window_fingerprints(labels)
            changes = fingerprint_change_points(prints)
        timings["fingerprint"] = time.perf_counter() - t0

        # --- offline probabilistic validation (eqs. 3–4) ----------------------
        t0 = time.perf_counter()
        with trace.span("validate"):
            reps = select_representatives(trajectory.angles, self.n_representatives)
            flat = trajectory.angles.reshape(n_frames, -1)
            distances = rmsd_time_series(flat, flat[reps])
            probs = label_probabilities(distances)
            scores = stability_scores(probs)
            stable, winners = stability_decisions(scores, STABILITY_THRESHOLD)
            segments = extract_segments(stable, winners)
        timings["validate"] = time.perf_counter() - t0

        phase_nmi = float(
            normalized_mutual_info(trajectory.phase_ids, labels)
        )
        seg_labels = segment_frame_labels(segments, n_frames)
        covered = seg_labels >= 0
        segment_nmi = (
            float(
                normalized_mutual_info(
                    trajectory.phase_ids[covered], seg_labels[covered]
                )
            )
            if covered.any()
            else None
        )

        return InSituResult(
            labels=labels,
            fingerprints=prints,
            fingerprint_changes=changes,
            segments=segments,
            stable_mask=stable,
            stability_labels=winners,
            n_clusters=int(np.unique(labels[labels >= 0]).size),
            phase_nmi=phase_nmi,
            segment_nmi=segment_nmi,
            timings=timings,
        )

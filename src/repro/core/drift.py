"""Distribution-drift detection and automatic re-projection response.

In-situ streams are open-world: the metastable basin a protein run starts
in says nothing about the transition it ends in. Adaptive binning
(:mod:`repro.core.adaptive`) keeps the *grid* honest when the range
drifts; this module keeps the *models* honest when the shape of the
distribution drifts inside the grid.

Detection — :class:`WindowDriftDetector`
    A reference/current pair of histogram windows per projection, in the
    spirit of xStream's windowed density comparison: each ``partial_fit``
    batch folds its deepest-depth histogram into the *current* window,
    and once the current window has seen ``window`` rows the detector
    scores the divergence between the normalized reference and current
    windows, then swaps (reference ← current, current ← 0). The score is
    the maximum over projected dimensions of the per-dimension total
    variation distance — TV is bounded in [0, 1], zero for identical
    distributions, robust to empty bins (no log ratios), and cheap
    (one pass over ``n_dims × 2^depth`` counts).

Response — :class:`DriftResponder`
    Detection alone is a metric; the response loop closes it: when any
    projection's latest score crosses the threshold, the responder calls
    ``skb.refresh(publish_to=...)`` so the collapse/cut/score pipeline
    re-derives cluster models from the post-drift histograms, then
    invokes an optional ``publish`` callable — in a fleet deployment, a
    router ``reload`` request pointing at the freshly saved artifact,
    which rides the existing staged-rollout path (canary → staged →
    complete) so a drift response is never a cliff-edge swap.
    A cooldown (measured in detector swaps) keeps one long transition
    from triggering a republish storm.

Both windows live at the deepest candidate depth and are **rebinned**
through :meth:`WindowDriftDetector.rebin` whenever the adaptive grid
widens, so a range-growth event does not masquerade as shape drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import ValidationError

__all__ = ["WindowDriftDetector", "DriftResponder", "DriftEvent", "tv_distance"]


def tv_distance(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """Total variation distance between two count vectors.

    Both inputs are raw (unnormalized) non-negative counts over the same
    bins; each is normalized by its own mass. An empty vector is treated
    as indistinguishable from anything (distance 0) — a window that saw
    no rows carries no evidence of drift.
    """
    p = np.asarray(p_counts, dtype=np.float64).ravel()
    q = np.asarray(q_counts, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValidationError("tv_distance needs equal-length count vectors")
    ps, qs = p.sum(), q.sum()
    if ps <= 0 or qs <= 0:
        return 0.0
    return float(0.5 * np.abs(p / ps - q / qs).sum())


class WindowDriftDetector:
    """Reference/current histogram-window divergence scorer for one
    projection state.

    Parameters
    ----------
    n_dims, n_bins:
        Shape of the deepest-depth marginal histogram this detector is
        fed: ``n_dims`` projected dimensions × ``n_bins = 2^deepest``
        bins each.
    window:
        Number of rows a current window must absorb before it is scored
        against the reference and swapped in as the new reference.
    threshold:
        Score at or above which :attr:`drifted` reports True for the
        most recent completed window. Stored here (rather than only in
        the responder) so checkpoints carry the operating point.
    """

    def __init__(
        self, n_dims: int, n_bins: int, window: int, threshold: float = 0.25
    ) -> None:
        if n_dims < 1 or n_bins < 2:
            raise ValidationError("WindowDriftDetector needs n_dims >= 1, n_bins >= 2")
        if window < 1:
            raise ValidationError(f"drift window must be >= 1 row, got {window}")
        if not (0.0 < threshold <= 1.0):
            raise ValidationError(
                f"drift threshold must be in (0, 1], got {threshold} (TV is bounded by 1)"
            )
        self.n_dims = int(n_dims)
        self.n_bins = int(n_bins)
        self.window = int(window)
        self.threshold = float(threshold)
        self.ref = np.zeros((self.n_dims, self.n_bins), dtype=np.int64)
        self.cur = np.zeros((self.n_dims, self.n_bins), dtype=np.int64)
        self.ref_count = 0
        self.cur_count = 0
        #: Score of the most recently completed window; None before the
        #: first reference/current pair exists.
        self.last_score: Optional[float] = None
        #: Monotone count of completed (scored) windows — the responder's
        #: cooldown clock.
        self.swaps = 0

    def update(self, batch_hist: np.ndarray, n_rows: int) -> Optional[float]:
        """Fold one batch's deepest-depth histogram into the current window.

        Returns the divergence score when this batch *completes* a
        window (and performs the reference swap), else None. The first
        completed window only seeds the reference — there is nothing to
        compare against yet — so the first score arrives with the second
        completed window.
        """
        h = np.asarray(batch_hist, dtype=np.int64)
        if h.shape != (self.n_dims, self.n_bins):
            raise ValidationError(
                f"drift update expects a ({self.n_dims}, {self.n_bins}) "
                f"histogram, got {h.shape}"
            )
        if n_rows < 0:
            raise ValidationError("n_rows must be >= 0")
        self.cur += h
        self.cur_count += int(n_rows)
        if self.cur_count < self.window:
            return None
        score: Optional[float] = None
        if self.ref_count > 0:
            score = max(
                tv_distance(self.ref[j], self.cur[j]) for j in range(self.n_dims)
            )
            self.last_score = score
        # Swap: the window just scored becomes the new reference.
        self.ref, self.cur = self.cur, self.ref
        self.ref_count = self.cur_count
        self.cur[...] = 0
        self.cur_count = 0
        self.swaps += 1
        return score

    @property
    def drifted(self) -> bool:
        """Whether the most recent completed window crossed the threshold."""
        return self.last_score is not None and self.last_score >= self.threshold

    def rebin(self, maps: np.ndarray) -> None:
        """Re-index both windows onto a widened grid.

        ``maps`` is the (n_dims × n_bins) old-bin → new-bin index map from
        :func:`repro.core.adaptive.rebin_maps`. Mass-conserving
        scatter-add, same as the state histograms — so a grid widening
        between two windows does not register as divergence.
        """
        maps = np.asarray(maps, dtype=np.int64)
        if maps.shape != (self.n_dims, self.n_bins):
            raise ValidationError(
                f"drift rebin expects ({self.n_dims}, {self.n_bins}) maps, "
                f"got {maps.shape}"
            )
        for name in ("ref", "cur"):
            old = getattr(self, name)
            new = np.zeros_like(old)
            for j in range(self.n_dims):
                np.add.at(new[j], maps[j], old[j])
            setattr(self, name, new)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "n_dims": self.n_dims,
            "n_bins": self.n_bins,
            "window": self.window,
            "threshold": self.threshold,
            "ref": self.ref.copy(),
            "cur": self.cur.copy(),
            "ref_count": int(self.ref_count),
            "cur_count": int(self.cur_count),
            "last_score": self.last_score,
            "swaps": int(self.swaps),
        }

    @classmethod
    def from_state_dict(cls, sd: Dict[str, Any]) -> "WindowDriftDetector":
        det = cls(
            int(sd["n_dims"]),
            int(sd["n_bins"]),
            int(sd["window"]),
            float(sd["threshold"]),
        )
        det.ref = np.asarray(sd["ref"], dtype=np.int64).reshape(det.ref.shape)
        det.cur = np.asarray(sd["cur"], dtype=np.int64).reshape(det.cur.shape)
        det.ref_count = int(sd["ref_count"])
        det.cur_count = int(sd["cur_count"])
        ls = sd.get("last_score")
        det.last_score = None if ls is None else float(ls)
        det.swaps = int(sd.get("swaps", 0))
        return det


@dataclass
class DriftEvent:
    """One detection → response cycle, as returned by
    :meth:`DriftResponder.step`."""

    #: Index of the projection whose score triggered the response.
    projection: int
    #: The triggering divergence score.
    score: float
    #: Detector swap count at trigger time (the cooldown clock value).
    swap: int
    #: Whether ``skb.refresh`` ran (False only if publishing alone failed).
    refreshed: bool
    #: Result of the ``publish`` callable, or None when no publisher is
    #: configured. Publish exceptions propagate — a failed fleet
    #: republish is an operational event, not something to swallow.
    publish_result: Any = None


#: Fewest detector window swaps between two drift responses: 1 means at
#: most one response per completed window.
COOLDOWN_SWAPS = 1

@dataclass
class DriftResponder:
    """Closes the loop from drift score to re-projection and republish.

    Call :meth:`step` after every ``partial_fit`` (or on whatever cadence
    the harness prefers); it inspects the estimator's drift detectors
    and, when any projection's latest completed window crossed its
    threshold *and* the cooldown has elapsed, refreshes the cluster
    models and invokes the publisher.

    Attributes
    ----------
    skb:
        The :class:`~repro.core.streaming.StreamingKeyBin2` being
        watched. Must have been constructed with ``drift_window > 0``.
    publish_to:
        Forwarded to ``skb.refresh(publish_to=...)`` — the model-store
        slot the refreshed models land in.
    publish:
        Optional zero-argument callable run after a successful refresh —
        typically saves an artifact and sends the router a
        ``{"op": "reload", "path": ...}`` request so the new models ride
        the staged rollout. Its return value lands in
        :attr:`DriftEvent.publish_result`.

    Two responses are at least :data:`COOLDOWN_SWAPS` detector window swaps
    apart (per the global clock: the max swap count across projections).
    """

    skb: Any
    publish_to: Optional[str] = None
    publish: Optional[Callable[[], Any]] = None
    _last_response_swap: int = field(default=-(10**9), init=False)
    #: Every event this responder has emitted, newest last.
    history: List[DriftEvent] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if getattr(self.skb, "drift_window", 0) <= 0:
            raise ValidationError(
                "DriftResponder needs an estimator with drift detection "
                "enabled (construct StreamingKeyBin2 with drift_window > 0)"
            )

    def step(self) -> Optional[DriftEvent]:
        """Check detectors; respond when drifted and out of cooldown.

        Returns the :class:`DriftEvent` when a response fired, else None.
        """
        detectors = self.skb.drift_detectors
        clock = max((d.swaps for d in detectors if d is not None), default=0)
        if clock - self._last_response_swap < COOLDOWN_SWAPS:
            return None
        worst: Optional[int] = None
        worst_score = -1.0
        for i, det in enumerate(detectors):
            if det is not None and det.drifted and det.last_score > worst_score:
                worst, worst_score = i, float(det.last_score)
        if worst is None:
            return None
        self._last_response_swap = clock
        self.skb.refresh(publish_to=self.publish_to)
        result = self.publish() if self.publish is not None else None
        event = DriftEvent(
            projection=worst,
            score=worst_score,
            swap=clock,
            refreshed=True,
            publish_result=result,
        )
        self.history.append(event)
        from repro.obs import default_registry

        reg = default_registry()
        if reg.enabled:
            reg.counter(
                "stream_drift_responses_total",
                "Drift-triggered refresh+republish responses",
                ("projection",),
            ).labels(projection=str(worst)).inc()
        return event

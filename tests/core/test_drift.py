"""Windowed drift detection and the detect → refresh → republish loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import drift
from repro.core.drift import DriftResponder, WindowDriftDetector, tv_distance
from repro.core.streaming import StreamingKeyBin2
from repro.errors import ValidationError
from tests.data.streams import RegimeChangeStream


class TestTvDistance:
    def test_identical_is_zero(self):
        p = np.array([5, 5, 0, 10], dtype=np.int64)
        assert tv_distance(p, 3 * p) == 0.0  # scale-free: same distribution

    def test_disjoint_is_one(self):
        p = np.array([10, 0], dtype=np.int64)
        q = np.array([0, 7], dtype=np.int64)
        assert tv_distance(p, q) == pytest.approx(1.0)

    def test_empty_window_scores_zero(self):
        p = np.array([1, 2, 3], dtype=np.int64)
        assert tv_distance(p, np.zeros(3, dtype=np.int64)) == 0.0
        assert tv_distance(np.zeros(3, dtype=np.int64), p) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.integers(0, 50, size=16)
            q = rng.integers(0, 50, size=16)
            assert 0.0 <= tv_distance(p, q) <= 1.0


def _hist(rows: int, col: int, n_dims: int = 2, n_bins: int = 8) -> np.ndarray:
    """A deep histogram with all of ``rows`` rows' mass in one bin."""
    h = np.zeros((n_dims, n_bins), dtype=np.int64)
    h[:, col] = rows
    return h


class TestWindowDriftDetector:
    def test_first_window_only_seeds_reference(self):
        det = WindowDriftDetector(n_dims=2, n_bins=8, window=10)
        det.update(_hist(10, 1), 10)
        assert det.last_score is None  # nothing to compare against yet
        assert det.swaps == 1

    def test_stationary_scores_low(self):
        det = WindowDriftDetector(n_dims=2, n_bins=8, window=10, threshold=0.25)
        for _ in range(4):
            det.update(_hist(10, 1), 10)
        assert det.last_score == pytest.approx(0.0)
        assert not det.drifted

    def test_shift_scores_high_then_recovers(self):
        det = WindowDriftDetector(n_dims=2, n_bins=8, window=10, threshold=0.25)
        det.update(_hist(10, 1), 10)   # seed reference
        det.update(_hist(10, 6), 10)   # new regime: full TV against reference
        assert det.last_score == pytest.approx(1.0)
        assert det.drifted
        det.update(_hist(10, 6), 10)   # next window: new regime vs new regime
        assert det.last_score == pytest.approx(0.0)
        assert not det.drifted

    def test_partial_windows_accumulate(self):
        det = WindowDriftDetector(n_dims=2, n_bins=8, window=10)
        det.update(_hist(4, 1), 4)
        assert det.swaps == 0          # window not yet complete
        det.update(_hist(6, 1), 6)
        assert det.swaps == 1

    def test_rebin_moves_window_mass(self):
        from repro.core.adaptive import rebin_maps

        det = WindowDriftDetector(n_dims=1, n_bins=16, window=100)
        det.update(_hist(10, 3, n_dims=1, n_bins=16), 10)  # partial window
        maps = rebin_maps(np.array([0]), np.array([2]), depth=4)
        before_ref = det.ref.sum()
        before_cur = det.cur.sum()
        det.rebin(maps)
        assert det.ref.sum() == before_ref and det.cur.sum() == before_cur
        assert det.cur[0, maps[0][3]] == 10

    def test_state_roundtrip(self):
        det = WindowDriftDetector(n_dims=2, n_bins=8, window=10, threshold=0.3)
        det.update(_hist(10, 1), 10)
        det.update(_hist(7, 5), 7)
        det2 = WindowDriftDetector.from_state_dict(det.state_dict())
        assert np.array_equal(det2.ref, det.ref)
        assert np.array_equal(det2.cur, det.cur)
        assert det2.last_score == det.last_score
        assert det2.swaps == det.swaps
        assert det2.threshold == det.threshold

    def test_validation(self):
        with pytest.raises(ValidationError):
            WindowDriftDetector(n_dims=0, n_bins=8, window=10)
        with pytest.raises(ValidationError):
            WindowDriftDetector(n_dims=2, n_bins=8, window=0)


def _feed(skb: StreamingKeyBin2, responder: DriftResponder, stream):
    events = []
    for x, _ in stream:
        skb.partial_fit(x)
        event = responder.step()
        if event is not None:
            events.append(event)
    return events


class TestDriftResponder:
    def _skb(self, **kw):
        kw.setdefault("n_projections", 3)
        kw.setdefault("candidate_depths", (4, 5))
        kw.setdefault("adaptive", True)
        kw.setdefault("drift_window", 400)
        kw.setdefault("drift_threshold", 0.4)
        kw.setdefault("seed", 0)
        return StreamingKeyBin2(**kw)

    def test_requires_drift_detection(self):
        skb = StreamingKeyBin2(n_projections=2, seed=0)
        with pytest.raises(ValidationError):
            DriftResponder(skb)

    def test_regime_change_triggers_one_response(self):
        skb = self._skb()
        published = []
        responder = DriftResponder(
            skb, publish=lambda: published.append(skb.model_) or "ok"
        )
        stream = RegimeChangeStream(
            n_batches=10, batch_size=200, n_dims=8, change_at=4, seed=3
        )
        events = _feed(skb, responder, stream)
        assert len(events) == 1
        event = events[0]
        assert event.refreshed and event.score >= 0.4
        assert event.publish_result == "ok"
        assert published and published[0] is skb.model_
        assert responder.history == events

    def test_stationary_stream_never_fires(self):
        skb = self._skb()
        responder = DriftResponder(skb)
        stream = RegimeChangeStream(
            n_batches=6, batch_size=200, n_dims=8, change_at=4, seed=3
        )
        # Stop before the change reaches a completed window.
        for i, (x, _) in enumerate(stream):
            if i >= 4:
                break
            skb.partial_fit(x)
            assert responder.step() is None

    def test_cooldown_suppresses_repeat_responses(self, monkeypatch):
        # A long transition can keep scores high across several windows;
        # a large cooldown must keep the responder quiet after the first.
        monkeypatch.setattr(drift, "COOLDOWN_SWAPS", 100)
        skb = self._skb(drift_window=200)
        responder = DriftResponder(skb)
        stream = RegimeChangeStream(
            n_batches=12, batch_size=200, n_dims=8, change_at=4, seed=3
        )
        events = _feed(skb, responder, stream)
        assert len(events) == 1

    def test_publish_to_forwarded(self):
        class Registry:
            def __init__(self):
                self.models = []

            def publish(self, model):
                self.models.append(model)

        reg = Registry()
        skb = self._skb()
        responder = DriftResponder(skb, publish_to=reg)
        stream = RegimeChangeStream(
            n_batches=10, batch_size=200, n_dims=8, change_at=4, seed=3
        )
        events = _feed(skb, responder, stream)
        assert len(events) == 1
        assert reg.models == [skb.model_]

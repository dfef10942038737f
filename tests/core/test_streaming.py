"""Tests for StreamingKeyBin2 and the KeyCounter."""

import numpy as np
import pytest

from repro.core.streaming import KeyCounter, StreamingKeyBin2
from tests.kernels.oracle import fold_rows
from repro.data.gaussians import gaussian_mixture
from repro.data.streams import BatchStream, DriftingStream
from repro.errors import NotFittedError, ValidationError
from repro.metrics.external import purity


class TestKeyCounter:
    def test_counts_unique_rows(self, rng):
        rows = rng.integers(0, 4, (100, 3)).astype(np.uint8)
        kc = KeyCounter()
        fold_rows(kc, rows)
        keys, counts = kc.to_arrays()
        assert counts.sum() == 100
        assert keys.shape[0] == np.unique(rows, axis=0).shape[0]

    def test_incremental_equals_batch(self, rng):
        rows = rng.integers(0, 4, (90, 2)).astype(np.uint8)
        a = KeyCounter()
        fold_rows(a, rows)
        b = KeyCounter()
        for i in range(0, 90, 7):
            fold_rows(b, rows[i : i + 7])
        ka, ca = a.to_arrays()
        kb, cb = b.to_arrays()
        da = {bytes(k): c for k, c in zip(ka, ca)}
        db = {bytes(k): c for k, c in zip(kb, cb)}
        assert da == db

    def test_eviction_drops_smallest(self, rng):
        kc = KeyCounter(capacity=10)
        # One heavy key plus many singletons.
        heavy = np.zeros((50, 2), dtype=np.uint8)
        fold_rows(kc, heavy)
        singles = np.stack(
            [np.arange(1, 41, dtype=np.uint8), np.arange(1, 41, dtype=np.uint8)],
            axis=1,
        )
        fold_rows(kc, singles)
        keys, counts = kc.to_arrays()
        assert len(kc) <= 10
        assert kc.evicted_keys > 0
        # The heavy key must have survived eviction.
        assert counts.max() == 50

    def test_width_change_rejected(self):
        kc = KeyCounter()
        fold_rows(kc, np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValidationError):
            fold_rows(kc, np.zeros((2, 4), dtype=np.uint8))

    def test_empty_update_noop(self):
        kc = KeyCounter()
        fold_rows(kc, np.zeros((0, 3), dtype=np.uint8))
        assert len(kc) == 0

    def test_merge_arrays_equals_pooled_update(self, rng):
        rows_a = rng.integers(0, 4, (80, 3)).astype(np.uint8)
        rows_b = rng.integers(0, 4, (60, 3)).astype(np.uint8)
        a = KeyCounter()
        fold_rows(a, rows_a)
        b = KeyCounter()
        fold_rows(b, rows_b)
        a.merge_arrays(*b.to_arrays())
        pooled = KeyCounter()
        fold_rows(pooled, np.concatenate([rows_a, rows_b]))
        da = {bytes(k): c for k, c in zip(*a.to_arrays())}
        dp = {bytes(k): c for k, c in zip(*pooled.to_arrays())}
        assert da == dp

    def test_merge_arrays_enforces_capacity(self):
        """A merge that overflows the cap must evict, not silently grow."""
        a = KeyCounter(capacity=10)
        fold_rows(a, np.arange(8, dtype=np.uint8).reshape(-1, 1))
        b = KeyCounter()
        fold_rows(b, np.arange(100, 108, dtype=np.uint8).reshape(-1, 1))
        a.merge_arrays(*b.to_arrays())
        assert len(a) <= 10
        assert a.evicted_keys > 0

    def test_merge_arrays_accumulates_peer_evictions(self):
        a = KeyCounter()
        fold_rows(a, np.zeros((5, 2), dtype=np.uint8))
        b = KeyCounter(capacity=4)
        fold_rows(b, np.arange(20, dtype=np.uint8).reshape(-1, 2))  # forces evictions
        assert b.evicted_points > 0
        a.merge_arrays(
            *b.to_arrays(),
            evicted_keys=b.evicted_keys,
            evicted_points=b.evicted_points,
        )
        assert a.evicted_keys == b.evicted_keys
        assert a.evicted_points == b.evicted_points

    def test_merge_arrays_empty_payload_keeps_evictions(self):
        a = KeyCounter()
        a.merge_arrays(
            np.empty((0, 0), dtype=np.uint8),
            np.empty(0, dtype=np.int64),
            evicted_keys=2,
            evicted_points=7,
        )
        assert len(a) == 0
        assert (a.evicted_keys, a.evicted_points) == (2, 7)

    def test_merge_arrays_width_mismatch_rejected(self):
        a = KeyCounter()
        fold_rows(a, np.zeros((3, 2), dtype=np.uint8))
        with pytest.raises(ValidationError):
            a.merge_arrays(np.zeros((2, 3), dtype=np.uint8), np.ones(2, dtype=np.int64))

    def test_merge_arrays_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            KeyCounter().merge_arrays(
                np.zeros((3, 2), dtype=np.uint8), np.ones(2, dtype=np.int64)
            )

    def test_eviction_is_content_deterministic(self):
        """Replicas holding the same cells in different insertion orders
        must evict the same cells (ties broken on key bytes)."""
        rows = np.arange(40, dtype=np.uint8).reshape(-1, 1)  # all count 1
        a = KeyCounter(capacity=30)
        fold_rows(a, rows[:20])
        fold_rows(a, rows[20:])  # overflow evicts here, insertion order 0..39
        b = KeyCounter(capacity=30)
        fold_rows(b, rows[20:])
        fold_rows(b, rows[:20])  # same contents, insertion order 20..39,0..19
        da = {bytes(k): c for k, c in zip(*a.to_arrays())}
        db = {bytes(k): c for k, c in zip(*b.to_arrays())}
        assert da == db


class TestStreamingKeyBin2:
    def test_stream_learns_clusters(self, small_gaussians):
        x, y = small_gaussians
        skb = StreamingKeyBin2(seed=0)
        for batch, _ in BatchStream(x, y, batch_size=250):
            skb.partial_fit(batch)
        skb.refresh()
        assert skb.n_clusters_ >= 4
        assert purity(y, skb.predict(x)) > 0.9

    def test_single_point_batches(self, rng):
        x = np.concatenate(
            [rng.normal(-10, 0.5, (100, 4)), rng.normal(10, 0.5, (100, 4))]
        )
        skb = StreamingKeyBin2(seed=0, n_projections=2)
        for row in x:
            skb.partial_fit(row.reshape(1, -1))
        skb.refresh()
        assert skb.n_clusters_ >= 2

    def test_refresh_without_data_raises(self):
        with pytest.raises(NotFittedError):
            StreamingKeyBin2().refresh()

    def test_predict_before_refresh_raises(self, rng):
        skb = StreamingKeyBin2(seed=0)
        skb.partial_fit(rng.random((10, 3)))
        with pytest.raises(NotFittedError):
            skb.predict(rng.random((5, 3)))

    def test_feature_count_locked(self, rng):
        skb = StreamingKeyBin2(seed=0)
        skb.partial_fit(rng.random((10, 3)))
        with pytest.raises(ValidationError):
            skb.partial_fit(rng.random((10, 4)))

    def test_out_of_range_drift_clips_not_crashes(self, rng):
        skb = StreamingKeyBin2(seed=0, n_projections=2)
        skb.partial_fit(rng.normal(0, 1, (200, 4)))
        # Later batch far outside the seeded range.
        skb.partial_fit(rng.normal(50, 1, (200, 4)))
        skb.refresh()
        labels = skb.predict(rng.normal(50, 1, (20, 4)))
        assert labels.shape == (20,)

    def test_drifting_stream_end_to_end(self):
        stream = DriftingStream(
            n_batches=8, batch_size=200, n_dims=8, n_clusters=3, seed=0
        )
        skb = StreamingKeyBin2(seed=0, n_projections=3)
        last_x, last_y = None, None
        for bx, by in stream:
            skb.partial_fit(bx)
            last_x, last_y = bx, by
        skb.refresh()
        assert purity(last_y, skb.predict(last_x)) > 0.7

    def test_refresh_is_repeatable(self, small_gaussians):
        x, _ = small_gaussians
        skb = StreamingKeyBin2(seed=0)
        skb.partial_fit(x)
        skb.refresh()
        first = skb.predict(x)
        skb.refresh()  # refresh again without new data
        assert np.array_equal(skb.predict(x), first)

    def test_more_data_after_refresh(self, small_gaussians):
        x, y = small_gaussians
        half = x.shape[0] // 2
        skb = StreamingKeyBin2(seed=0)
        skb.partial_fit(x[:half])
        skb.refresh()
        skb.partial_fit(x[half:])
        skb.refresh()
        assert skb.n_seen_ == x.shape[0]
        assert purity(y, skb.predict(x)) > 0.85

    def test_depth_limit_enforced(self):
        with pytest.raises(ValidationError):
            StreamingKeyBin2(candidate_depths=(4, 9))

    def test_streaming_equals_batch_histograms(self, small_gaussians):
        """After an identical initializing batch (which seeds the binning
        range), chunked and one-shot accumulation must agree exactly."""
        x, _ = small_gaussians
        first, rest = x[:500], x[500:]
        a = StreamingKeyBin2(seed=5)
        a.partial_fit(first)
        a.partial_fit(rest)
        b = StreamingKeyBin2(seed=5)
        b.partial_fit(first)
        for i in range(0, rest.shape[0], 111):
            b.partial_fit(rest[i : i + 111])
        for st_a, st_b in zip(a._states, b._states):
            for d in st_a.depths:
                assert np.array_equal(st_a.hist[d], st_b.hist[d])


def test_refresh_phases_split_per_depth(small_gaussians):
    """The refresh tail reports its cuts / cell-table / score split per
    depth in phase_seconds_total, next to the one collapse pass."""
    from repro.obs import MetricsRegistry, set_default_registry

    x, _ = small_gaussians
    reg = MetricsRegistry()
    previous = set_default_registry(reg)
    try:
        skb = StreamingKeyBin2(seed=0, candidate_depths=(3, 4, 5))
        skb.partial_fit(x)
        skb.refresh()
    finally:
        set_default_registry(previous)
    calls = {
        s["labels"]["phase"]: s["value"]
        for s in reg.get("phase_calls_total").snapshot()["samples"]
    }
    seconds = {
        s["labels"]["phase"]: s["value"]
        for s in reg.get("phase_seconds_total").snapshot()["samples"]
    }
    assert calls["refresh/collapse"] == 1
    for phase in ("cuts", "cell_table", "score"):
        assert calls[f"refresh/{phase}"] == 3
        assert seconds[f"refresh/{phase}"] > 0.0

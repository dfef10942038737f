"""Adaptive-range streaming: bit-identity, exact rebins, OOR quarantine,
drifting-stream end-to-end behavior, and v2 checkpoint round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import StreamingKeyBin2
from repro.errors import ValidationError
from tests.data.streams import MeanShiftStream, RangeGrowthStream, RegimeChangeStream
from tests.kernels.oracle import ReferenceKeyBin2

DEPTHS = (4, 5, 6)


def _make(adaptive: bool, fused: bool, **kw) -> StreamingKeyBin2:
    kw.setdefault("n_projections", 4)
    kw.setdefault("candidate_depths", DEPTHS)
    kw.setdefault("seed", 0)
    cls = StreamingKeyBin2 if fused else ReferenceKeyBin2
    return cls(adaptive=adaptive, **kw)


def _assert_states_equal(a: StreamingKeyBin2, b: StreamingKeyBin2) -> None:
    assert a.n_seen_ == b.n_seen_
    for sa, sb in zip(a._states, b._states):
        np.testing.assert_array_equal(sa.space.r_min, sb.space.r_min)
        np.testing.assert_array_equal(sa.space.r_max, sb.space.r_max)
        for d in sa.depths:
            np.testing.assert_array_equal(sa.hist[d], sb.hist[d])
        ka, ca = sa.keys.to_arrays()
        kb, cb = sb.keys.to_arrays()
        np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(ca, cb)


def _assert_mass_invariants(skb: StreamingKeyBin2) -> None:
    """Every depth holds all mass; shallow depths are exact coarsenings."""
    deepest = skb.candidate_depths[-1]
    for st in skb._states:
        n_dims = st.space.n_dims
        for d in st.depths:
            assert int(st.hist[d].sum()) == skb.n_seen_ * n_dims
        for d in st.depths[:-1]:
            coarse = st.hist[deepest].reshape(n_dims, 1 << d, -1).sum(axis=2)
            np.testing.assert_array_equal(st.hist[d], coarse)
        _, counts = st.keys.to_arrays()
        assert int(counts.sum()) + st.keys.evicted_points == skb.n_seen_


class TestStationaryBitIdentity:
    """On an in-range stream, adaptive must be invisible — bit for bit."""

    @pytest.mark.parametrize("fused", [False, True])
    def test_adaptive_matches_fixed(self, small_gaussians, fused):
        x, _ = small_gaussians
        fixed = _make(False, fused)
        adaptive = _make(True, fused)
        for start in range(0, 1500, 500):
            fixed.partial_fit(x[start:start + 500])
            adaptive.partial_fit(x[start:start + 500])
        _assert_states_equal(fixed, adaptive)
        assert sum(st.rebin_count for st in adaptive._states) == 0
        assert all(np.all(st.levels == 0) for st in adaptive._states)
        labels_f = fixed.refresh().predict(x[1500:])
        labels_a = adaptive.refresh().predict(x[1500:])
        np.testing.assert_array_equal(labels_f, labels_a)

    def test_fused_matches_reference_while_adapting(self):
        stream = list(RangeGrowthStream(n_batches=8, batch_size=300,
                                        n_dims=8, growth=1.7, seed=5))
        ref = _make(True, fused=False)
        fus = _make(True, fused=True)
        for x, _ in stream:
            ref.partial_fit(x)
            fus.partial_fit(x)
        assert sum(st.rebin_count for st in ref._states) > 0
        _assert_states_equal(ref, fus)


class TestAdaptiveWidening:
    @pytest.mark.parametrize("fused", [False, True])
    def test_growth_stream_conserves_mass_exactly(self, fused):
        skb = _make(True, fused)
        for x, _ in RangeGrowthStream(n_batches=10, batch_size=250,
                                      n_dims=8, growth=1.8, seed=1):
            skb.partial_fit(x)
            _assert_mass_invariants(skb)
        assert sum(st.rebin_count for st in skb._states) > 0
        # Adaptive mode quarantines nothing permanently: after the final
        # widen-and-retry, every row landed on the grid.
        assert skb.n_seen_ == 2500

    def test_oor_ledger_counts_events(self):
        skb = _make(True, fused=True)
        for x, _ in RangeGrowthStream(n_batches=6, batch_size=200,
                                      n_dims=8, growth=2.0, seed=2):
            skb.partial_fit(x)
        oor = sum(int(st.oor_low.sum() + st.oor_high.sum())
                  for st in skb._states)
        assert oor > 0  # growth forced out-of-range events...
        assert sum(st.rebin_count for st in skb._states) > 0  # ...and rebins

    def test_mean_shift_widens_one_side_dominant(self):
        skb = _make(True, fused=True)
        for x, _ in MeanShiftStream(n_batches=12, batch_size=200,
                                    n_dims=6, shift=2.5, seed=3):
            skb.partial_fit(x)
        assert sum(st.rebin_count for st in skb._states) > 0
        _assert_mass_invariants(skb)

    def test_epoch_advances_with_rebins(self):
        skb = _make(True, fused=True)
        for x, _ in RangeGrowthStream(n_batches=6, batch_size=200,
                                      n_dims=8, growth=2.0, seed=4):
            skb.partial_fit(x)
        for st in skb._states:
            assert st.bin_epoch == st.rebin_count
            if st.rebin_count:
                assert np.any(st.levels > 0)
                # The live space is the chain grid at the current levels.
                from repro.core.adaptive import grid_bounds

                r_min, r_max = grid_bounds(
                    st.base_space.r_min, st.base_space.r_max, st.levels
                )
                np.testing.assert_array_equal(st.space.r_min, r_min)
                np.testing.assert_array_equal(st.space.r_max, r_max)

    def test_predict_after_widening_works(self):
        skb = _make(True, fused=True)
        batches = list(RangeGrowthStream(n_batches=8, batch_size=250,
                                         n_dims=8, growth=1.6, seed=6))
        for x, _ in batches:
            skb.partial_fit(x)
        labels = skb.refresh().predict(batches[-1][0])
        assert labels.shape == (250,)


class TestFixedModeClipTracking:
    """Satellite (a): clipped-row counts exist even with adaptive off."""

    @pytest.mark.parametrize("fused", [False, True])
    def test_fixed_mode_records_clipped_rows(self, fused):
        skb = _make(False, fused, feature_range=(-2.0, 2.0))
        rng = np.random.default_rng(0)
        skb.partial_fit(rng.normal(size=(500, 8)))          # in range
        skb.partial_fit(100.0 * rng.normal(size=(500, 8)))  # mostly clipped
        clipped = sum(int(st.oor_low.sum() + st.oor_high.sum())
                      for st in skb._states)
        assert clipped > 0
        assert all(st.rebin_count == 0 for st in skb._states)  # fixed grid

    def test_in_range_stream_records_zero(self, small_gaussians):
        x, _ = small_gaussians
        skb = _make(False, True)
        skb.partial_fit(x)
        skb.partial_fit(x)  # range was seeded by the first batch
        assert all(int(st.oor_low.sum() + st.oor_high.sum()) == 0
                   for st in skb._states)


class TestCheckpointV2:
    def test_adaptive_roundtrip_mid_widening_is_bit_identical(self, tmp_path):
        batches = [x for x, _ in RangeGrowthStream(
            n_batches=8, batch_size=200, n_dims=8, growth=1.8, seed=7)]
        straight = _make(True, True, drift_window=300)
        resumed = _make(True, True, drift_window=300)
        for x in batches[:4]:
            straight.partial_fit(x)
            resumed.partial_fit(x)
        path = tmp_path / "mid.kb2"
        resumed.save_state(path)
        resumed = StreamingKeyBin2.load_state(path)
        for x in batches[4:]:
            straight.partial_fit(x)
            resumed.partial_fit(x)
        _assert_states_equal(straight, resumed)
        for sa, sb in zip(straight._states, resumed._states):
            np.testing.assert_array_equal(sa.levels, sb.levels)
            np.testing.assert_array_equal(sa.need_lo, sb.need_lo)
            np.testing.assert_array_equal(sa.need_hi, sb.need_hi)
            assert sa.bin_epoch == sb.bin_epoch
            np.testing.assert_array_equal(sa.oor_low, sb.oor_low)
            np.testing.assert_array_equal(sa.drift.ref, sb.drift.ref)
            np.testing.assert_array_equal(sa.drift.cur, sb.drift.cur)
            assert sa.drift.swaps == sb.drift.swaps
        np.testing.assert_array_equal(
            straight.refresh().predict(batches[-1]),
            resumed.refresh().predict(batches[-1]),
        )

    def test_config_fields_survive(self, tmp_path, rng):
        skb = _make(True, True, drift_window=123, drift_threshold=0.4)
        skb.partial_fit(rng.normal(size=(100, 6)))
        path = tmp_path / "cfg.kb2"
        skb.save_state(path)
        back = StreamingKeyBin2.load_state(path)
        assert back.adaptive is True
        assert back.drift_window == 123
        assert back.drift_threshold == 0.4


class TestValidationAndDefaults:
    def test_drift_window_requires_nonnegative(self):
        with pytest.raises(ValidationError):
            StreamingKeyBin2(n_projections=2, drift_window=-1, seed=0)

    def test_drift_detectors_empty_before_fit(self):
        skb = _make(True, True, drift_window=100)
        assert skb.drift_detectors == []

    def test_drift_detectors_none_when_disabled(self, rng):
        skb = _make(True, True)
        skb.partial_fit(rng.normal(size=(50, 4)))
        assert all(d is None for d in skb.drift_detectors)

    def test_regime_change_scored_by_detector(self):
        skb = _make(True, True, drift_window=400, drift_threshold=0.4)
        fired = []
        for x, _ in RegimeChangeStream(n_batches=10, batch_size=200,
                                       n_dims=8, change_at=4, seed=8):
            skb.partial_fit(x)
            fired.append(any(d is not None and d.drifted
                             for d in skb.drift_detectors))
        assert any(fired[4:])      # flagged after the change...
        assert not any(fired[:4])  # ...and silent before it

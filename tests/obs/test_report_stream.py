"""stream_table rendering: OOR rows, rebins, drift scores, edge warnings,
key-table eviction."""

from __future__ import annotations

import numpy as np

from repro.obs import MetricsRegistry, set_default_registry
from repro.obs import report
from repro.obs.report import EDGE_BIN_WARN_FRACTION, stream_table


def _reg() -> MetricsRegistry:
    return MetricsRegistry()


def _oor(reg, projection, dim, side, n):
    reg.counter(
        "stream_out_of_range_total", "", ("projection", "dim", "side")
    ).labels(projection=projection, dim=dim, side=side).inc(n)


def _edge(reg, projection, fraction):
    reg.gauge(
        "stream_edge_bin_fraction", "", ("projection",)
    ).labels(projection=projection).set(fraction)


class TestStreamTable:
    def test_untouched_registry_renders_one_liner(self):
        assert stream_table(_reg()) == "  (no stream range/drift events)"

    def test_oor_rows_grouped_by_projection_and_side(self):
        reg = _reg()
        _oor(reg, "0", "0", "low", 3)
        _oor(reg, "0", "1", "low", 4)  # same projection+side, other dim
        _oor(reg, "1", "0", "high", 5)
        out = stream_table(reg)
        assert "out-of-range rows: 12" in out
        assert "proj0/low=7" in out
        assert "proj1/high=5" in out

    def test_zero_valued_series_are_omitted(self):
        reg = _reg()
        _oor(reg, "0", "0", "low", 0)
        reg.counter("stream_rebin_total", "", ("projection",)).labels(
            projection="0"
        )  # touched but never incremented
        assert stream_table(reg) == "  (no stream range/drift events)"

    def test_rebins_and_drift_scores_render(self):
        reg = _reg()
        reg.counter("stream_rebin_total", "", ("projection",)).labels(
            projection="2"
        ).inc(3)
        reg.gauge("stream_drift_score", "", ("projection",)).labels(
            projection="2"
        ).set(0.875)
        reg.counter(
            "stream_drift_responses_total", "", ("projection",)
        ).labels(projection="2").inc()
        out = stream_table(reg)
        assert "adaptive grid rebins: 3" in out
        assert "proj2=0.875" in out
        assert "drift-triggered republishes: 1" in out

    def test_edge_saturation_warns_above_threshold(self):
        reg = _reg()
        _edge(reg, "0", 0.002)
        _edge(reg, "1", 0.40)
        out = stream_table(reg)
        assert "WARNING" in out
        assert "projection(s) 1" in out
        assert "adaptive binning" in out  # the actionable remedy

    def test_edge_below_threshold_stays_quiet(self):
        reg = _reg()
        _edge(reg, "0", EDGE_BIN_WARN_FRACTION / 2)
        out = stream_table(reg)
        assert "edge-bin mass fraction" in out
        assert "WARNING" not in out

    def test_key_eviction_renders_per_projection_only_when_set(self):
        reg = _reg()
        _edge(reg, "0", 0.002)
        assert "evicted" not in stream_table(reg)
        gauge = reg.gauge("stream_key_evicted_fraction", "", ("projection",))
        gauge.labels(projection="0").set(0.8912)
        gauge.labels(projection="1").set(0.0)
        out = stream_table(reg)
        assert "key-table evicted point fraction: proj0=0.8912  proj1=0.0000" in out

    def test_custom_edge_warn_threshold(self, monkeypatch):
        reg = _reg()
        _edge(reg, "0", 0.03)
        assert "WARNING" not in stream_table(reg)  # default 5%
        monkeypatch.setattr(report, "EDGE_BIN_WARN_FRACTION", 0.01)
        assert "WARNING" in stream_table(reg)


class TestStreamTableEndToEnd:
    def test_adaptive_growth_run_populates_every_section(self):
        from repro.core.streaming import StreamingKeyBin2
        from tests.data.streams import RangeGrowthStream

        reg = _reg()
        prev = set_default_registry(reg)
        try:
            skb = StreamingKeyBin2(
                n_projections=3, candidate_depths=(4, 5),
                adaptive=True, drift_window=300, seed=0,
            )
            for x, _ in RangeGrowthStream(n_batches=6, batch_size=200,
                                          n_dims=8, growth=2.0, seed=2):
                skb.partial_fit(x)
        finally:
            set_default_registry(prev)
        out = stream_table(reg)
        assert "out-of-range rows:" in out
        assert "adaptive grid rebins:" in out
        assert "drift scores (latest window TV):" in out

    def test_fixed_range_clipping_run_warns(self):
        rng = np.random.default_rng(0)
        from repro.core.streaming import StreamingKeyBin2

        reg = _reg()
        prev = set_default_registry(reg)
        try:
            skb = StreamingKeyBin2(
                n_projections=3, candidate_depths=(4, 5),
                feature_range=(-1.0, 1.0), seed=0,
            )
            skb.partial_fit(50.0 * rng.normal(size=(400, 8)))
            skb.refresh()  # edge-bin fractions are recorded at refresh
        finally:
            set_default_registry(prev)
        out = stream_table(reg)
        assert "out-of-range rows:" in out
        assert "WARNING" in out

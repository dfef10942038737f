"""SeriesStore windowed math + multi-window burn-rate alerting."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.obs import slo
from repro.obs.slo import (
    SeriesStore,
    SLOEvaluator,
    SLORule,
    Window,
    default_rules,
)

T0 = 1_000_000.0


def _feed_counter(store, instance, name, labels, points):
    for ts, value in points:
        store.record(instance, name, labels, value, ts)


class TestSeriesStore:
    def test_delta_over_window(self):
        store = SeriesStore()
        _feed_counter(store, "r0", "serve_requests_total", None,
                      [(T0 + i, 10.0 * i) for i in range(20)])
        # Window covering the last 5 seconds: 5 increments of 10.
        assert store.delta("r0", "serve_requests_total", None, 5.0,
                           now=T0 + 19) == pytest.approx(50.0)

    def test_delta_straddles_window_edge(self):
        # Samples every 10 s but a 5 s window: the baseline is the newest
        # sample at-or-before the edge, so the window never reads empty.
        store = SeriesStore()
        _feed_counter(store, "r0", "c_total", None,
                      [(T0, 0.0), (T0 + 10, 40.0)])
        assert store.delta("r0", "c_total", None, 5.0,
                           now=T0 + 10) == pytest.approx(40.0)

    def test_delta_clamps_counter_reset(self):
        store = SeriesStore()
        _feed_counter(store, "r0", "c_total", None,
                      [(T0, 100.0), (T0 + 1, 3.0)])  # replica restarted
        assert store.delta("r0", "c_total", None, 10.0, now=T0 + 1) == 0.0

    def test_sum_delta_across_label_sets(self):
        store = SeriesStore()
        for reason in ("queue_full", "deadline"):
            _feed_counter(store, "r0", "serve_shed_total",
                          {"reason": reason}, [(T0, 0.0), (T0 + 10, 5.0)])
        assert store.sum_delta("r0", "serve_shed_total", 60.0,
                               now=T0 + 10) == pytest.approx(10.0)

    def test_ring_capacity_bounded(self, monkeypatch):
        monkeypatch.setattr(slo, "SERIES_CAPACITY", 4)
        store = SeriesStore()
        _feed_counter(store, "r0", "c_total", None,
                      [(T0 + i, float(i)) for i in range(100)])
        # Baseline can only reach back 4 points.
        assert store.delta("r0", "c_total", None, 1e9,
                           now=T0 + 99) == pytest.approx(3.0)

    def test_ingest_families_explodes_histograms(self):
        store = SeriesStore()
        families = {
            "serve_request_seconds": {
                "type": "histogram",
                "samples": [{
                    "labels": {},
                    "buckets": {"0.1": 3, "+Inf": 4},
                    "sum": 1.5, "count": 4,
                }],
            },
            "serve_queue_depth": {
                "type": "gauge",
                "samples": [{"labels": {}, "value": 7.0}],
            },
        }
        store.ingest_families("r0", families, T0)
        assert store.latest("r0", "serve_request_seconds_count") == 4
        assert store._ring("r0", "serve_request_seconds_bucket",
                           (("le", "0.1"),))[-1][1] == 3
        assert store.latest("r0", "serve_queue_depth") == 7.0
        assert store.instances() == ["r0"]

    def test_quantile_interpolates_bucket_deltas(self):
        store = SeriesStore()
        # 100 observations in the window, all in the (0.1, 0.2] bucket.
        for le, base, top in (("0.1", 0, 0), ("0.2", 0, 100),
                              ("+Inf", 0, 100)):
            _feed_counter(store, "r0", "serve_request_seconds_bucket",
                          {"le": le}, [(T0, float(base)), (T0 + 60, float(top))])
        p50 = store.quantile("r0", "serve_request_seconds", 0.5, 120.0,
                             now=T0 + 60)
        assert 0.1 < p50 <= 0.2
        assert p50 == pytest.approx(0.15)

    def test_quantile_none_without_observations(self):
        store = SeriesStore()
        assert store.quantile("r0", "serve_request_seconds", 0.99,
                              60.0) is None
        # Flat buckets (no new observations in window) also yield None.
        for le in ("0.1", "+Inf"):
            _feed_counter(store, "r0", "serve_request_seconds_bucket",
                          {"le": le}, [(T0, 50.0), (T0 + 60, 50.0)])
        assert store.quantile("r0", "serve_request_seconds", 0.99, 30.0,
                              now=T0 + 60) is None

    def test_quantile_inf_bucket_returns_last_finite_bound(self):
        store = SeriesStore()
        for le, top in (("0.1", 0.0), ("+Inf", 10.0)):
            _feed_counter(store, "r0", "serve_request_seconds_bucket",
                          {"le": le}, [(T0, 0.0), (T0 + 60, top)])
        assert store.quantile("r0", "serve_request_seconds", 0.99, 120.0,
                              now=T0 + 60) == pytest.approx(0.1)

    def test_window_max_spans_label_sets(self):
        # Drift gauges are per projection; the rule cares about the worst.
        store = SeriesStore()
        for proj, score in (("0", 0.1), ("1", 0.8), ("2", 0.3)):
            _feed_counter(store, "r0", "stream_drift_score",
                          {"projection": proj}, [(T0, score)])
        assert store.window_max("r0", "stream_drift_score", 60.0,
                                now=T0 + 1) == pytest.approx(0.8)

    def test_window_max_straddles_window_edge(self):
        # A gauge holds its value until the next sample: the newest point
        # at-or-before the edge still counts, old history does not.
        store = SeriesStore()
        _feed_counter(store, "r0", "stream_drift_score",
                      {"projection": "0"},
                      [(T0, 0.9), (T0 + 100, 0.05)])
        assert store.window_max("r0", "stream_drift_score", 60.0,
                                now=T0 + 130) == pytest.approx(0.05)
        # A wider window reaches the drifted sample itself.
        assert store.window_max("r0", "stream_drift_score", 200.0,
                                now=T0 + 130) == pytest.approx(0.9)

    def test_window_max_none_without_samples(self):
        assert SeriesStore().window_max("r0", "stream_drift_score",
                                        60.0, now=T0) is None


def _burning_store(error_ratio, n=40, period=30.0, requests_per_tick=100.0):
    """Store with a steady request rate and the given error ratio."""
    store = SeriesStore()
    for i in range(n):
        ts = T0 + i * period
        total = requests_per_tick * i
        store.record("r0", "serve_requests_total", None, total, ts)
        store.record("r0", "serve_errors_total", None,
                     total * error_ratio, ts)
    return store, T0 + (n - 1) * period


class TestBurnRateAlerts:
    def test_fast_burn_fires_page(self):
        # 2% errors against 0.999 => burn 20x: over the 4x page factor.
        store, now = _burning_store(0.02)
        alerts = SLOEvaluator([SLORule("availability", "availability",
                                       0.999)]).evaluate(store, now=now)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.severity == "page" and alert.instance == "r0"
        assert alert.burn > 4.0 and alert.burn_short > 4.0
        assert "burn" in alert.describe()

    def test_sustainable_burn_stays_silent(self):
        # 0.01% errors => burn 0.1x: well under both factors.
        store, now = _burning_store(0.0001)
        alerts = SLOEvaluator([SLORule("availability", "availability",
                                       0.999)]).evaluate(store, now=now)
        assert alerts == []

    def test_short_window_gates_the_alert(self):
        # Historic burn but clean recent traffic: the long window still
        # shows errors, the short window shows none => no alert (the
        # incident is over).
        store = SeriesStore()
        for i in range(40):
            ts = T0 + i * 30.0
            # Errors plateau after i=20: the incident is over.
            store.record("r0", "serve_requests_total", None, 100.0 * i, ts)
            store.record("r0", "serve_errors_total", None,
                         min(50.0 * i, 50.0 * 20), ts)
        now = T0 + 39 * 30.0
        rule = SLORule("availability", "availability", 0.999,
                       windows=(Window(900.0, 60.0, 4.0),))
        assert SLOEvaluator([rule]).evaluate(store, now=now) == []

    def test_no_data_no_alert(self):
        assert SLOEvaluator(default_rules()).evaluate(SeriesStore(), now=T0) == []

    def test_shed_burn_alert_fires_under_synthetic_overload(self):
        # Acceptance criterion: sustained shedding fires the shed-rate
        # burn alert long before availability moves.
        store = SeriesStore()
        for i in range(40):
            ts = T0 + i * 30.0
            store.record("r0", "serve_requests_total", None, 100.0 * i, ts)
            store.record("r0", "serve_shed_total",
                         {"reason": "queue_full"}, 60.0 * i, ts)
        now = T0 + 39 * 30.0
        alerts = SLOEvaluator(default_rules()).evaluate(store, now=now)
        shed = [a for a in alerts if a.kind == "shed_rate"]
        assert len(shed) == 1
        # 60/160 = 37.5% shed against a 5% objective: 7.5x burn.
        assert shed[0].burn == pytest.approx(7.5, rel=0.05)
        assert shed[0].severity == "page"
        # And availability did NOT fire: sheds are not errors.
        assert not [a for a in alerts if a.kind == "availability"]

    def test_latency_rule_fires_on_slow_p99(self):
        store = SeriesStore()
        # All requests land in the (0.5, 1.0] bucket: p99 ~ 1.0s > 0.25s.
        for le, top in (("0.25", 0.0), ("0.5", 0.0), ("1.0", 100.0),
                        ("+Inf", 100.0)):
            _feed_counter(store, "r0", "serve_request_seconds_bucket",
                          {"le": le}, [(T0, 0.0), (T0 + 120, top)])
        now = T0 + 120
        alerts = SLOEvaluator(default_rules()).evaluate(store, now=now)
        lat = [a for a in alerts if a.kind == "latency_p99"]
        assert len(lat) == 1 and lat[0].value > 0.25

    def test_per_instance_isolation(self):
        # One sick replica cannot hide behind a healthy one.
        store, now = _burning_store(0.02)
        for i in range(40):
            ts = T0 + i * 30.0
            store.record("r1", "serve_requests_total", None, 100.0 * i, ts)
            store.record("r1", "serve_errors_total", None, 0.0, ts)
        alerts = SLOEvaluator([SLORule("availability", "availability",
                                       0.999)]).evaluate(store, now=now)
        assert [a.instance for a in alerts] == ["r0"]

    def _drift_store(self, tail_score, head_score=0.9, n=14, period=30.0):
        """Scores are ``head_score`` until the last two samples, which
        carry ``tail_score`` — enough to cover the 60 s short window."""
        store = SeriesStore()
        for i in range(n):
            score = tail_score if i >= n - 2 else head_score
            store.record("r0", "stream_drift_score", {"projection": "1"},
                         score, T0 + i * period)
        return store, T0 + (n - 1) * period

    def test_sustained_drift_fires_ticket(self):
        store, now = self._drift_store(tail_score=0.9)
        alerts = SLOEvaluator(default_rules()).evaluate(store, now=now)
        drift = [a for a in alerts if a.kind == "drift_score"]
        assert len(drift) == 1
        assert drift[0].severity == "ticket"
        # Burn = worst window score over the 0.25 objective.
        assert drift[0].burn == pytest.approx(0.9 / 0.25)
        assert drift[0].value == pytest.approx(0.9)

    def test_absorbed_drift_stops_paging(self):
        # The re-projection response brought scores back down: the long
        # window still remembers the excursion, the short window gates.
        store, now = self._drift_store(tail_score=0.02)
        alerts = SLOEvaluator(default_rules()).evaluate(store, now=now)
        assert not [a for a in alerts if a.kind == "drift_score"]

    def test_subthreshold_drift_stays_silent(self):
        store, now = self._drift_store(tail_score=0.2, head_score=0.2)
        alerts = SLOEvaluator(default_rules()).evaluate(store, now=now)
        assert not [a for a in alerts if a.kind == "drift_score"]

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            Window(10.0, 20.0, 4.0)  # short > long
        with pytest.raises(ValidationError):
            Window(10.0, 5.0, 0.0)
        with pytest.raises(ValidationError):
            SLORule("bad", "nonsense", 0.5)
        with pytest.raises(ValidationError):
            SLORule("bad", "availability", 1.5)

"""Terminal dashboard rendering over a synthetic collector."""

from __future__ import annotations

import io

from repro.obs import MetricsCollector, render_dashboard, run_dashboard
from repro.obs import dashboard
from repro.obs.dashboard import _CLEAR

T0 = 1_000_000.0


def _loaded_collector():
    """A collector fed synthetically (no sockets): one busy replica."""
    collector = MetricsCollector(targets=[("replica-0", "127.0.0.1", 1)])
    for i in range(8):
        ts = T0 + i
        families = {
            "serve_requests_total": {
                "type": "counter", "help": "",
                "samples": [{"labels": {}, "value": 50.0 * i}],
            },
            "serve_shed_total": {
                "type": "counter", "help": "",
                "samples": [{"labels": {"reason": "queue_full"},
                             "value": 40.0 * i}],
            },
            "serve_queue_depth": {
                "type": "gauge", "help": "",
                "samples": [{"labels": {}, "value": 12.0}],
            },
            "serve_in_flight": {
                "type": "gauge", "help": "",
                "samples": [{"labels": {}, "value": 3.0}],
            },
            "serve_cache_hit_rate": {
                "type": "gauge", "help": "",
                "samples": [{"labels": {}, "value": 0.5}],
            },
            "serve_circuit_state": {
                "type": "gauge", "help": "",
                "samples": [{"labels": {}, "value": 2.0}],
            },
        }
        collector._fold("replica-0", families, ts)
    collector.alerts = collector.evaluator.evaluate(collector.store,
                                                    now=T0 + 7)
    return collector


class TestRenderDashboard:
    def test_frame_has_header_row_and_values(self):
        frame = render_dashboard(_loaded_collector(), window_s=4.0,
                                 now=T0 + 7)
        assert "fleet dashboard" in frame
        for column in ("instance", "qps", "queue", "p99 ms", "circuit"):
            assert column in frame
        assert "replica-0" in frame
        assert "UP" in frame
        assert "open" in frame  # circuit state 2 renders as "open"
        # 50 requests/s over the window.
        assert "50.0" in frame

    def test_shed_burn_alert_surfaces_in_frame(self):
        # 40/90 shed against the 5% objective: the shed burn alert from
        # the synthetic overload must appear on the dashboard.
        frame = render_dashboard(_loaded_collector(), window_s=4.0,
                                 now=T0 + 7)
        assert "ALERTS FIRING" in frame
        assert "shed_rate on replica-0" in frame

    def test_no_alerts_renders_quiet_footer(self):
        collector = MetricsCollector(targets=[("r0", "127.0.0.1", 1)])
        frame = render_dashboard(collector, now=T0)
        assert "alerts: none firing" in frame
        assert "ALERTS FIRING" not in frame


class TestRunDashboard:
    def test_once_renders_single_plain_frame(self):
        out = io.StringIO()
        frames = run_dashboard(_loaded_collector(), once=True, out=out)
        assert frames == 1
        text = out.getvalue()
        assert "fleet dashboard" in text
        assert _CLEAR not in text  # --once never clears the screen

    def test_loop_clears_each_frame_until_interrupted(self, monkeypatch):
        sleeps = []

        def sleep(seconds):  # Ctrl-C during the third pause
            sleeps.append(seconds)
            if len(sleeps) == 3:
                raise KeyboardInterrupt

        monkeypatch.setattr(dashboard.time, "sleep", sleep)
        out = io.StringIO()
        frames = run_dashboard(_loaded_collector(), interval_s=0.0, out=out)
        assert frames == 3
        assert out.getvalue().count(_CLEAR) == 3

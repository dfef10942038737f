"""Exposition (Prometheus text + JSON), snapshot logger, obs-report."""

import io
import json

from repro.obs import (
    MetricsRegistry,
    SnapshotLogger,
    ensure_core_series,
    render_json,
    render_prometheus,
    run_obs_report,
)


def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("req_total", "Requests.", ("op",)).labels(op="predict").inc(3)
    reg.gauge("depth", "Queue depth.").set(7)
    h = reg.histogram("lat_seconds", "Latency.")
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


class TestPrometheusText:
    def test_help_type_and_samples(self):
        text = render_prometheus(_populated_registry())
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="predict"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 7" in text

    def test_histogram_rendering(self):
        text = render_prometheus(_populated_registry())
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 5.55" in text
        assert "lat_seconds_count 3" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "", ("p",)).labels(p='a"b\\c\nd').inc()
        text = render_prometheus(reg)
        assert 'c_total{p="a\\"b\\\\c\\nd"} 1' in text

    def test_multi_registry_merge_and_dedupe(self):
        a = _populated_registry()
        b = MetricsRegistry()
        b.counter("req_total", "Requests.", ("op",)).labels(op="stats").inc()
        b.counter("only_b_total").inc()
        text = render_prometheus([a, b, a])  # a listed twice: deduped
        assert text.count('req_total{op="predict"}') == 1
        assert 'req_total{op="stats"} 1' in text
        assert "only_b_total 1" in text

    def test_ends_with_newline(self):
        assert render_prometheus(MetricsRegistry()).endswith("\n")


class TestPrometheusConformance:
    """Text-format (0.0.4) invariants the fleet scrapers rely on."""

    def test_help_escapes_backslash_and_newline(self):
        reg = MetricsRegistry()
        reg.counter("c_total", 'path\\to\nthing "quoted"').inc()
        text = render_prometheus(reg)
        assert '# HELP c_total path\\\\to\\nthing "quoted"' in text

    def test_histogram_buckets_cumulative_and_terminated(self):
        reg = MetricsRegistry()
        h = reg._register("h_seconds", "histogram", "H.", ("op",))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.labels(op="x").observe(v)
        text = render_prometheus(reg)
        counts = []
        for line in text.splitlines():
            if line.startswith("h_seconds_bucket"):
                counts.append(float(line.rsplit(" ", 1)[1]))
        # Cumulative, monotone non-decreasing, +Inf last and == _count.
        assert counts == sorted(counts)
        assert 'le="+Inf"' in text.splitlines()[
            [i for i, l in enumerate(text.splitlines())
             if l.startswith("h_seconds_bucket")][-1]
        ]
        assert counts[-1] == 5.0
        assert "h_seconds_count" in text and "h_seconds_sum" in text
        count_line = next(l for l in text.splitlines()
                          if l.startswith("h_seconds_count"))
        assert float(count_line.rsplit(" ", 1)[1]) == counts[-1]

    def test_every_sample_line_parses(self):
        text = render_prometheus(_populated_registry())
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value is a valid float
            assert name_part[0].isalpha() or name_part[0] == "_"

    def test_le_label_merges_with_user_labels(self):
        reg = MetricsRegistry()
        h = reg._register("h_seconds", "histogram", "H.", ("op",))
        h.labels(op="predict").observe(0.5)
        text = render_prometheus(reg)
        assert 'h_seconds_bucket{op="predict",le="1"} 1' in text
        assert 'h_seconds_bucket{op="predict",le="+Inf"} 1' in text


class TestJson:
    def test_shape_round_trips_through_json(self):
        payload = render_json(_populated_registry())
        blob = json.loads(json.dumps(payload))
        fam = blob["families"]["req_total"]
        assert fam["type"] == "counter"
        assert fam["samples"] == [{"labels": {"op": "predict"}, "value": 3.0}]
        hist = blob["families"]["lat_seconds"]["samples"][0]
        assert hist["buckets"]["+Inf"] == hist["count"] == 3


class TestEnsureCoreSeries:
    def test_core_families_present_even_at_zero_samples(self):
        reg = ensure_core_series(MetricsRegistry())
        text = render_prometheus(reg)
        for name in (
            "phase_calls_total",
            "phase_seconds_total",
            "insitu_consolidation_rounds_total",
            "insitu_consolidation_bytes_total",
            "stream_points_total",
        ):
            assert f"# TYPE {name} counter" in text

    def test_idempotent(self):
        reg = MetricsRegistry()
        ensure_core_series(reg)
        ensure_core_series(reg)  # second call must not raise or duplicate
        assert len([f for f in reg.families()
                    if f.name == "phase_calls_total"]) == 1


class TestSnapshotLogger:
    def test_writes_json_lines_and_final_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(4)
        sink = io.StringIO()
        with SnapshotLogger(sink, interval_s=3600.0, registries=[reg]):
            pass  # interval never fires; stop() writes the final snapshot
        lines = [l for l in sink.getvalue().splitlines() if l]
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["ts"] > 0
        assert record["families"]["c_total"]["samples"][0]["value"] == 4.0

    def test_periodic_snapshots(self):
        reg = MetricsRegistry()
        sink = io.StringIO()
        logger = SnapshotLogger(sink, interval_s=0.01, registries=[reg])
        with logger:
            import time

            deadline = time.monotonic() + 2.0
            while logger.snapshots_written < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert logger.snapshots_written >= 3  # >= 2 periodic + 1 final
        for line in sink.getvalue().splitlines():
            json.loads(line)  # every line parses whole

    def test_slow_writes_do_not_stretch_cadence(self):
        # A sink whose write takes ~1.5 intervals: fixed-sleep scheduling
        # would drift the cadence to interval+write; tick-boundary
        # scheduling instead skips missed ticks and stays aligned, so over
        # the run we still land >= half the wall-clock tick count.
        import time

        reg = MetricsRegistry()
        interval = 0.02

        class SlowSink(io.StringIO):
            def write(self, s):
                time.sleep(interval * 1.5)
                return super().write(s)

        sink = SlowSink()
        t0 = time.monotonic()
        with SnapshotLogger(sink, interval_s=interval, registries=[reg]):
            time.sleep(0.4)
        elapsed = time.monotonic() - t0
        ticks = elapsed / interval
        lines = [l for l in sink.getvalue().splitlines() if l]
        # Every ~1.5-tick write still lands on a boundary: close to
        # ticks/1.5 snapshots, and never the drifted interval+write rate
        # (which would cap at ticks/2.5).
        assert len(lines) >= int(ticks / 2.5) + 1
        for line in lines:
            json.loads(line)

    def test_path_sink(self, tmp_path):
        reg = MetricsRegistry()
        path = tmp_path / "metrics.jsonl"
        with SnapshotLogger(str(path), interval_s=3600.0, registries=[reg]):
            pass
        assert json.loads(path.read_text().splitlines()[0])["families"] == {}


class TestObsReport:
    def test_report_renders_phase_and_comm_tables(self):
        out = run_obs_report(n_ranks=2, n_frames=80, chunk_size=40,
                             consolidate_every=2, seed=0)
        assert "Per-phase time" in out
        assert "partial_fit" in out
        assert "Consolidation comm volume" in out
        assert "hist B/round" in out

    def test_report_json_contains_core_series(self):
        blob = json.loads(run_obs_report(
            n_ranks=2, n_frames=80, chunk_size=40, consolidate_every=2,
            seed=0, as_json=True,
        ))
        fams = blob["families"]
        assert blob["workload"]["ranks"] == 2
        assert blob["workload"]["model_hist_bytes_per_round"] > 0
        assert any(
            s["value"] > 0
            for s in fams["insitu_consolidation_bytes_total"]["samples"]
        )
        assert any(
            s["labels"]["phase"].endswith("partial_fit/project")
            for s in fams["phase_calls_total"]["samples"]
        )

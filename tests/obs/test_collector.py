"""Fleet metrics collector: live pulls, merged endpoint, scrape health."""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.core.estimator import KeyBin2
from repro.errors import ValidationError
import repro.obs.collector as collector_mod
from repro.obs import (
    MetricsCollector,
    MetricsRegistry,
    SnapshotLogger,
    collector_in_thread,
)
from repro.serve import BatchPolicy, ModelRegistry, ServeClient, serve_in_thread


@pytest.fixture(scope="module")
def collector_model(small_gaussians):
    x, _ = small_gaussians
    return KeyBin2(n_projections=4, seed=3).fit(x).model_


@pytest.fixture()
def two_replicas(collector_model):
    """Two independent in-thread replicas with a little traffic on each."""
    handles = []
    try:
        for _ in range(2):
            registry = ModelRegistry()
            registry.publish(collector_model)
            handles.append(serve_in_thread(
                registry, policy=BatchPolicy(max_delay_s=0.002)
            ))
        rng = np.random.default_rng(0)
        for handle in handles:
            with ServeClient(*handle.address) as client:
                for _ in range(4):
                    client.predict(rng.normal(size=16))
        yield handles
    finally:
        for handle in handles:
            handle.stop()


def _targets(handles):
    return [(f"replica-{i}", *h.address) for i, h in enumerate(handles)]


def _rpc(address, payload):
    with socket.create_connection(address, timeout=5.0) as sock:
        fh = sock.makefile("rwb")
        fh.write(json.dumps(payload).encode() + b"\n")
        fh.flush()
        return json.loads(fh.readline())


class TestLivePull:
    def test_poll_folds_every_replica(self, two_replicas):
        collector = MetricsCollector(targets=_targets(two_replicas))
        collector.poll_once()
        assert collector.cycles == 1
        assert collector.up == {"replica-0": True, "replica-1": True}
        for instance in ("replica-0", "replica-1"):
            assert collector.store.latest(
                instance, "serve_requests_total"
            ) >= 4

    def test_merged_families_stamp_instance_label(self, two_replicas):
        collector = MetricsCollector(targets=_targets(two_replicas))
        collector.poll_once()
        families = collector.merged_families()
        # Scrape-health family leads the exposition.
        assert families[0]["name"] == "collector_instance_up"
        reqs = next(f for f in families
                    if f["name"] == "serve_requests_total")
        instances = {s["labels"]["instance"] for s in reqs["samples"]}
        assert instances == {"replica-0", "replica-1"}
        text = collector.render_prometheus()
        assert 'serve_requests_total{instance="replica-0"}' in text
        assert 'serve_requests_total{instance="replica-1"}' in text
        assert 'collector_instance_up{instance="replica-0"} 1' in text

    def test_instance_summary_shape(self, two_replicas):
        collector = MetricsCollector(targets=_targets(two_replicas))
        collector.poll_once()
        summary = collector.instance_summary("replica-0")
        assert summary["up"] is True
        assert summary["circuit"] == "closed"
        assert summary["queue_depth"] is not None
        assert {s["instance"] for s in collector.summaries()} == {
            "replica-0", "replica-1",
        }


class TestScrapeHealth:
    def test_dead_target_marked_down_not_fatal(self, two_replicas, monkeypatch):
        # One live replica plus one target nobody listens on.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        targets = _targets(two_replicas[:1]) + [
            ("replica-dead", "127.0.0.1", dead_port)
        ]
        monkeypatch.setattr(collector_mod, "PULL_TIMEOUT_S", 0.5)
        collector = MetricsCollector(targets=targets)
        collector.poll_once()
        assert collector.up == {"replica-0": True, "replica-dead": False}
        assert collector.scrape_failures == 1
        assert collector.store.latest("replica-dead", "collector_up") == 0.0
        text = collector.render_prometheus()
        assert 'collector_instance_up{instance="replica-dead"} 0' in text


class TestSnapshotSource:
    def test_rank_snapshot_file_joins_the_store(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("stream_points_total", "Points.").inc(123)
        path = tmp_path / "rank0.metrics.jsonl"
        with SnapshotLogger(str(path), interval_s=3600.0, registries=[reg]):
            pass  # final flush writes one line
        collector = MetricsCollector(
            snapshot_files=[("rank-0", str(path))]
        )
        collector.poll_once()
        assert collector.up == {"rank-0": True}
        assert collector.store.latest(
            "rank-0", "stream_points_total"
        ) == 123.0

    def test_missing_snapshot_marks_down(self, tmp_path):
        collector = MetricsCollector(
            snapshot_files=[("rank-0", str(tmp_path / "absent.jsonl"))]
        )
        collector.poll_once()
        assert collector.up == {"rank-0": False}

    def test_torn_final_line_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "rank0.metrics.jsonl"
        good = json.dumps({"ts": 1.0, "families": {
            "c_total": {"type": "counter", "help": "",
                        "samples": [{"labels": {}, "value": 9.0}]},
        }})
        path.write_text(good + "\n" + '{"ts": 2.0, "families": {"tru')
        collector = MetricsCollector(
            snapshot_files=[("rank-0", str(path))]
        )
        collector.poll_once()
        assert collector.store.latest("rank-0", "c_total") == 9.0


class TestMergedEndpoint:
    def test_rpc_serves_metrics_alerts_healthz(self, two_replicas):
        import time

        collector = MetricsCollector(targets=_targets(two_replicas),
                                     interval_s=0.1)
        with collector_in_thread(collector) as handle:
            deadline = time.monotonic() + 5.0
            while collector.cycles < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            metrics = _rpc(handle.address, {"op": "metrics"})
            assert metrics["ok"] is True
            assert 'instance="replica-1"' in metrics["prometheus"]
            fams = metrics["metrics"]["families"]
            assert "serve_requests_total" in fams
            alerts = _rpc(handle.address, {"op": "alerts"})
            assert alerts["ok"] is True and isinstance(alerts["alerts"], list)
            health = _rpc(handle.address, {"op": "healthz"})
            assert health["role"] == "metrics-collector"
            assert health["instances"] == {"replica-0": True,
                                           "replica-1": True}
            bad = _rpc(handle.address, {"op": "nonsense"})
            assert bad["ok"] is False

    def test_background_loop_keeps_cycling(self, two_replicas):
        import time

        collector = MetricsCollector(targets=_targets(two_replicas),
                                     interval_s=0.05)
        with collector:
            deadline = time.monotonic() + 5.0
            while collector.cycles < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
        assert collector.cycles >= 3


class TestValidation:
    def test_needs_a_target(self):
        with pytest.raises(ValidationError):
            MetricsCollector()

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            MetricsCollector(targets=[("a", "h", 1), ("a", "h", 2)])
        with pytest.raises(ValidationError):
            MetricsCollector(targets=[("a", "h", 1)],
                             snapshot_files=[("a", "p")])

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError):
            MetricsCollector(targets=[("a", "h", 1)], interval_s=0.0)

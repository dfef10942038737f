"""Distributed tracing through the fleet: transparency, failover trees.

The three wire-level acceptance criteria of the tracing tentpole:

* untraced requests cross the router **byte-identical** — tracing must
  cost untouched traffic nothing, not even a JSON re-serialization;
* a traced predict that suffers a forced failover still reconstructs
  into one *connected* tree whose per-hop durations account for the
  client-observed latency;
* error outcomes are always sampled, even at ``sample_rate=0``.

Thread-mode replicas share the process with the router and the client,
so one in-memory :class:`TraceSink` observes every hop — exactly what a
shared trace file gives the multi-process deployment.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time

import pytest

from repro.errors import FleetUnavailableError
import repro.fleet.router as router_mod
from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.obs.reqtrace import (
    TraceSink,
    build_traces,
    configure_tracer,
    reset_tracer,
    trace_summary,
)
from repro.serve import ServeClient


@pytest.fixture()
def traced_sink():
    """Process-global tracer over an in-memory sink; always restored."""
    sink = TraceSink()
    configure_tracer(sink=sink, sample_rate=1.0, seed=0)
    try:
        yield sink
    finally:
        reset_tracer()


class _CapturingReplica(socketserver.ThreadingTCPServer):
    """A fake replica that records every raw predict line it receives."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self):
        self.lines = []
        self.lock = threading.Lock()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                while True:
                    line = self.rfile.readline()
                    if not line:
                        return
                    if b"healthz" in line:
                        reply = b'{"ok": true, "status": "serving"}\n'
                    else:
                        with outer.lock:
                            outer.lines.append(line)
                        reply = b'{"ok": true, "label": 0, "version": 1}\n'
                    self.wfile.write(reply)
                    self.wfile.flush()

        super().__init__(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()

    def stop(self):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


def _raw_roundtrip(address, raw_line):
    with socket.create_connection(address, timeout=5.0) as sock:
        fh = sock.makefile("rwb")
        fh.write(raw_line)
        fh.flush()
        return fh.readline()


class TestByteTransparency:
    # Deliberately odd spacing/key order: any parse+re-serialize in the
    # router would normalize it and fail the equality check.
    RAW = b'{ "x":[1.0, 2.5] ,"op" :"predict" }\n'

    def _route_and_capture(self, raw_line):
        replica = _CapturingReplica()
        try:
            endpoint = [("fake-r0", *replica.server_address)]
            with router_in_thread(endpoint, probe_interval_s=30.0) as handle:
                reply = _raw_roundtrip(handle.address, raw_line)
                assert reply.startswith(b'{"ok": true')
                deadline = time.monotonic() + 5.0
                while not replica.lines and time.monotonic() < deadline:
                    time.sleep(0.01)
                return list(replica.lines)
        finally:
            replica.stop()

    def test_untraced_request_forwarded_byte_identical(self):
        lines = self._route_and_capture(self.RAW)
        assert lines == [self.RAW]

    def test_untraced_stays_identical_with_tracer_enabled(self, traced_sink):
        # An enabled tracer must only touch lines that carry a trace
        # field; everything else still crosses as the original bytes.
        lines = self._route_and_capture(self.RAW)
        assert lines == [self.RAW]

    def test_traced_request_gains_trace_field_only(self, traced_sink):
        traced = b'{"op": "predict", "x": [1.0, 2.5], "trace": ' \
                 b'{"id": "00000000000000aa", "span": "00000000000000bb", ' \
                 b'"sampled": 1}}\n'
        lines = self._route_and_capture(traced)
        assert len(lines) == 1
        forwarded = json.loads(lines[0])
        original = json.loads(traced)
        # Same request, re-parented onto the router's forward span.
        assert {k: v for k, v in forwarded.items() if k != "trace"} == \
            {k: v for k, v in original.items() if k != "trace"}
        assert forwarded["trace"]["id"] == "00000000000000aa"
        assert forwarded["trace"]["span"] != "00000000000000bb"


class TestFailoverTrace:
    def test_failover_predict_reconstructs_connected_tree(
            self, traced_sink, fleet_model, small_gaussians):
        x, _ = small_gaussians
        with ReplicaSupervisor(model=fleet_model, mode="thread",
                               n_replicas=2) as sup:
            endpoints = sup.start()
            # Probe interval far beyond the test: health only degrades
            # through forward failures, which is the path under test.
            with router_in_thread(endpoints, probe_interval_s=60.0) as handle:
                with ServeClient(*handle.address) as client:
                    for i in range(8):
                        client.predict(x[i])  # traffic on both replicas
                    sup.kill("r0")
                    failover_wall = None
                    deadline = time.monotonic() + 15.0
                    i = 0
                    while failover_wall is None:
                        assert time.monotonic() < deadline, \
                            "no failover observed"
                        # Power-of-two-choices over both replicas, so
                        # some predict must try the dead replica.
                        i += 1
                        t0 = time.perf_counter()
                        client.predict(x[i % 256])
                        wall = time.perf_counter() - t0
                        spans = traced_sink.spans()
                        if any(s["name"] == "router/forward"
                               and s["status"] == "failover"
                               for s in spans):
                            failover_wall = wall

        spans = traced_sink.spans()
        failover = next(s for s in spans
                        if s["name"] == "router/forward"
                        and s["status"] == "failover")
        tree = build_traces(spans)[failover["trace"]]
        assert tree.connected, "failover trace must form one tree"
        assert not tree.orphans
        names = [record["name"] for _, record in tree.walk()]
        assert names[0] == "client/predict"
        assert names.count("router/forward") >= 2  # dead try + retry
        assert "server/predict" in names
        assert any(n in names for n in ("server/model_call",
                                        "server/cache_hit"))

        summary = trace_summary(tree)
        # Per-hop self times must account for the client-observed
        # latency: within 5% (plus a small floor for timer granularity).
        assert summary["accounted_s"] <= failover_wall
        assert failover_wall - summary["accounted_s"] <= max(
            0.05 * failover_wall, 0.005
        )

    def test_healthy_predict_single_forward(self, traced_sink, fleet_model,
                                            small_gaussians):
        x, _ = small_gaussians
        with ReplicaSupervisor(model=fleet_model, mode="thread",
                               n_replicas=2) as sup:
            endpoints = sup.start()
            with router_in_thread(endpoints, probe_interval_s=60.0) as handle:
                with ServeClient(*handle.address) as client:
                    client.predict(x[0])
        trees = build_traces(traced_sink.spans())
        assert len(trees) == 1
        tree = next(iter(trees.values()))
        assert tree.connected
        names = [record["name"] for _, record in tree.walk()]
        assert names.count("router/forward") == 1
        assert "server/predict" in names


class TestErrorsAlwaysSampled:
    def test_unavailable_error_traced_at_rate_zero(self, fleet_model,
                                                   small_gaussians, monkeypatch):
        monkeypatch.setattr(router_mod, "MAX_FAILOVERS", 0)
        sink = TraceSink()
        configure_tracer(sink=sink, sample_rate=0.0, seed=0)
        try:
            x, _ = small_gaussians
            with ReplicaSupervisor(model=fleet_model, mode="thread",
                                   n_replicas=1) as sup:
                endpoints = sup.start()
                with router_in_thread(endpoints, probe_interval_s=60.0) as handle:
                    with ServeClient(*handle.address,
                                     retries=0) as client:
                        client.predict(x[0])  # healthy: NOT emitted
                        assert sink.emitted == 0
                        sup.kill("r0")
                        with pytest.raises(FleetUnavailableError):
                            client.predict(x[1])
            statuses = {s["name"]: s["status"] for s in sink.spans()}
            assert statuses.get("client/predict") == "unavailable"
            assert statuses.get("router/route") == "unavailable"
        finally:
            reset_tracer()

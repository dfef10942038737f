"""Drift e2e: regime change → detect → refresh → staged fleet republish.

The scaled-down CI twin of ``examples/insitu_drift_run.py``: a streaming
estimator watches a regime-changing stream while a thread-mode fleet
serves the stale model under open-loop load. The drift responder must
fire exactly once, push the refreshed model through the staged rollout
to ``complete``, and the client stream must see zero hard failures
throughout — the drift response is invisible to callers.
"""

from __future__ import annotations

import threading
import time

from repro.core.drift import DriftResponder
from repro.core.streaming import StreamingKeyBin2
from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.serve import ServeClient
from repro.serve.loadgen import run_open_loop
from tests.data.streams import RegimeChangeStream

N_DIMS = 8
BOOTSTRAP_BATCHES = 2


def _stream():
    # change_at aligned with the 400-row window boundary: exactly one
    # full-TV window, hence exactly one drift event (see test_drift.py).
    return RegimeChangeStream(n_batches=10, batch_size=200, n_dims=N_DIMS,
                              change_at=4, seed=3)


def test_drift_response_republishes_under_load_without_client_errors(
        tmp_path):
    batches = [x for x, _ in _stream()]
    skb = StreamingKeyBin2(
        n_projections=3, candidate_depths=(4, 5),
        adaptive=True, drift_window=400, drift_threshold=0.4, seed=0,
    )
    for x in batches[:BOOTSTRAP_BATCHES]:
        skb.partial_fit(x)
    v1 = skb.refresh().model_
    v1_fingerprint = v1.fingerprint()

    with ReplicaSupervisor(model=v1, mode="thread", n_replicas=3) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.05) as handle:
            host, port = handle.address

            def republish():
                path = tmp_path / f"drift-{skb.model_.fingerprint()}.json"
                skb.model_.save(path)
                with ServeClient(host, port) as client:
                    return client.request({
                        "op": "reload", "path": str(path),
                        "tag": "drift-response",
                    })

            responder = DriftResponder(skb, publish=republish)

            result = {}

            def load():
                result["report"] = run_open_loop(
                    host, port, batches[0], rate=200.0, duration_s=4.0,
                    n_connections=4, request_timeout_s=10.0,
                )

            loader = threading.Thread(target=load)
            loader.start()
            time.sleep(0.3)  # traffic established before the regime moves

            for x in batches[BOOTSTRAP_BATCHES:]:
                skb.partial_fit(x)
                responder.step()
                time.sleep(0.05)

            loader.join(timeout=30.0)
            assert not loader.is_alive()

            # Exactly one response: detected once, refreshed, republished
            # through the staged rollout to completion.
            events = responder.history
            assert len(events) == 1
            event = events[0]
            assert event.refreshed and event.score >= 0.4
            summary = event.publish_result
            assert summary["rollout"]["state"] == "complete"
            assert summary["fingerprint"] == skb.model_.fingerprint()
            assert summary["fingerprint"] != v1_fingerprint

            # The fleet now serves the refreshed model everywhere.
            with ServeClient(host, port) as client:
                status = client.request({"op": "fleet-status"})
            assert status["healthy_replicas"] == 3

    # Zero client-visible hard failures across the whole episode.
    report = result["report"]
    assert report.outcomes["error"] == 0
    assert report.outcomes["timeout"] == 0
    assert report.requests_ok == report.requests_sent
    assert report.requests_ok > 200

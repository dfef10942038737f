"""FleetRouter end-to-end: the wire protocol over thread-mode replicas.

Every test drives the router through the *unchanged* serve clients —
that transparency is the headline property of the tier.
"""

from __future__ import annotations

import json
import socket
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.fleet.router as router_mod
from repro.errors import (
    ConnectionLostError,
    FleetUnavailableError,
    ShedError,
)
from repro.fleet import (
    FleetRouter,
    ReplicaSupervisor,
    TenantQuotaPolicy,
    TenantQuotas,
    router_in_thread,
)
from repro.obs.report import fleet_table
from repro.serve import (
    AdmissionPolicy,
    ModelRegistry,
    ServeClient,
    serve_in_thread,
)


def _routed_ok_counts(client):
    status = client.request({"op": "fleet-status"})
    return {
        rid: per.get("ok", 0) for rid, per in status["routed"].items()
    }


def test_predict_through_router_matches_direct(thread_fleet, small_gaussians):
    sup, handle = thread_fleet
    x, _ = small_gaussians
    rid, rhost, rport = sup.endpoints()[0]
    with ServeClient(rhost, rport) as direct, \
            ServeClient(*handle.address) as routed:
        for i in range(10):
            a = direct.predict(x[i])
            b = routed.predict(x[i])
            assert a.label == b.label
            assert a.fingerprint == b.fingerprint
            assert a.version == b.version


def test_batch_predict_passes_through(thread_fleet, small_gaussians):
    _, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address) as client:
        resp = client.request({"op": "predict", "x": x[:64].tolist()})
    assert resp["ok"] and len(resp["labels"]) == 64


def test_distinct_points_spread_across_replicas(thread_fleet, small_gaussians):
    _, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address) as client:
        for i in range(120):
            client.predict(x[i])
        counts = _routed_ok_counts(client)
    assert sum(counts.values()) == 120
    assert len([c for c in counts.values() if c > 0]) >= 2


def test_single_point_predicts_feed_canary_sample(thread_fleet,
                                                  small_gaussians):
    _, handle = thread_fleet
    x, _ = small_gaussians
    sent = x[:40]
    with ServeClient(*handle.address) as client:
        for row in sent:
            client.predict(row)
    rows = handle.server.probe_rows(8, x.shape[1])
    assert len(rows) == 8
    # Live rows (the 1st, 17th and 33rd predicts), not the zero fallback.
    for row in rows:
        assert any(np.array_equal(row, s) for s in sent)
    assert len({tuple(r) for r in rows}) == 3


def test_plain_predict_is_relayed_unparsed(monkeypatch):
    parsed = []

    def loads(line):
        parsed.append(line)
        return json.loads(line)

    monkeypatch.setattr(router_mod, "json", SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
    router = FleetRouter([("r0", "127.0.0.1", 1)])
    batch = (json.dumps({"op": "predict", "x": [[0.25] * 16] * 64})
             + "\n").encode()
    assert len(batch) > router_mod._SAMPLE_MAX_BYTES
    # A batch at the sample tick is still relayed unparsed.
    assert router._inspect(batch) == ("predict", None)
    line = b'{"op": "predict", "x": [0.5, 1.5]}\n'
    results = [router._inspect(line) for _ in range(31)]
    # Only the 17th predict line overall is the canary sample.
    assert [i for i, (_, req) in enumerate(results) if req is not None] == [15]
    assert all(op == "predict" for op, _ in results)
    assert parsed == [line]
    assert router.probe_rows(2, 2) == [[0.5, 1.5], [0.5, 1.5]]


def test_near_equal_load_hints_share_traffic():
    # With nothing outstanding, a hint a few hundredths higher is a tie,
    # not a loss: both replicas get a fair share of the picks.
    router = FleetRouter([("r0", "127.0.0.1", 1), ("r1", "127.0.0.1", 2)],
                         seed=0)
    router._states["r0"].load_hint = 0.07
    router._states["r1"].load_hint = 0.0
    picks = [router._pick(()).id for _ in range(400)]
    assert picks.count("r0") >= 100
    assert picks.count("r1") >= 100


def test_refusing_replica_does_not_attract_traffic(fleet_model,
                                                   small_gaussians):
    # r0 admits one request, then sheds every other one at once. Sheds
    # return faster than answers, so without the shed signal the
    # least-loaded pick keeps splitting traffic evenly (about 20 sheds).
    x, _ = small_gaussians
    registries = [ModelRegistry(), ModelRegistry()]
    for registry in registries:
        registry.publish(fleet_model)
    stingy = AdmissionPolicy(rate=0.01, burst=1)
    with serve_in_thread(registries[0], admission=stingy) as r0, \
            serve_in_thread(registries[1]) as r1:
        endpoints = [("r0", *r0.address), ("r1", *r1.address)]
        with router_in_thread(endpoints, probe_interval_s=60.0) as handle:
            with ServeClient(*handle.address) as client:
                sheds = 0
                for i in range(40):
                    try:
                        client.predict(x[i])
                    except ShedError:
                        sheds += 1
                routed = client.request({"op": "fleet-status"})["routed"]
    assert sheds == routed["r0"].get("shed", 0)
    assert sheds <= 2
    assert routed["r1"]["ok"] >= 37


def test_healthz_reports_fleet_role(thread_fleet):
    _, handle = thread_fleet
    with ServeClient(*handle.address) as client:
        payload = client.request({"op": "healthz"})
    assert payload["role"] == "fleet-router"
    assert payload["status"] == "serving"
    assert payload["healthy_replicas"] == 3
    assert payload["rollout"] == "idle"


def test_stats_aggregates_replicas(thread_fleet, small_gaussians):
    _, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address) as client:
        client.predict(x[0])
        stats = client.request({"op": "stats"})
    assert set(stats["replicas"]) == {"r0", "r1", "r2"}
    assert stats["fleet"]["healthy_replicas"] == 3


def test_model_info_passthrough(thread_fleet, fleet_model):
    _, handle = thread_fleet
    with ServeClient(*handle.address) as client:
        info = client.request({"op": "model-info"})
    assert info["ok"] and info["fingerprint"] == fleet_model.fingerprint()


def test_metrics_exposes_fleet_series_and_table(thread_fleet, small_gaussians):
    _, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address) as client:
        for i in range(5):
            client.predict(x[i])
        payload = client.request({"op": "metrics"})
    assert "fleet_routed_total" in payload["prometheus"]
    assert "fleet_routed_total" in payload["metrics"]["families"]
    table = fleet_table(handle.server.registry)
    assert "replica" in table and "ok" in table


def test_fleet_table_placeholder_without_traffic():
    from repro.obs.registry import MetricsRegistry

    assert "no fleet traffic" in fleet_table(MetricsRegistry())


def test_malformed_line_gets_error_response(thread_fleet):
    _, handle = thread_fleet
    host, port = handle.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(b"this is not json\n")
        line = sock.makefile("rb").readline()
    payload = json.loads(line)
    assert payload["ok"] is False and "malformed" in payload["error"]


def test_killed_replica_fails_over_without_client_error(
        thread_fleet, small_gaussians):
    sup, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address) as client:
        for i in range(30):
            client.predict(x[i])
        sup.kill("r1")
        # Every point keeps getting answered: requests picked for r1
        # fail over; the health loop ejects it shortly after.
        for _ in range(3):
            for i in range(30):
                result = client.predict(x[i])
                assert result.label >= 0
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if client.request({"op": "healthz"})["healthy_replicas"] == 2:
                break
            time.sleep(0.05)
        payload = client.request({"op": "healthz"})
        assert payload["healthy_replicas"] == 2
        assert payload["status"] == "degraded"
        status = client.request({"op": "fleet-status"})
        assert not status["replicas"]["r1"]["healthy"]
        assert status["replicas"]["r1"]["ejections"] == 1


def test_restart_readmits_under_same_id(thread_fleet, small_gaussians):
    sup, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address) as client:
        sup.kill("r2")
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if client.request({"op": "healthz"})["healthy_replicas"] == 2:
                break
            time.sleep(0.05)
        host, port = sup.restart("r2")
        handle.call(handle.server.set_endpoint("r2", host, port))
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if client.request({"op": "healthz"})["healthy_replicas"] == 3:
                break
            time.sleep(0.05)
        status = client.request({"op": "fleet-status"})
        assert status["replicas"]["r2"]["healthy"]
        assert status["replicas"]["r2"]["readmissions"] == 1
        for i in range(20):
            client.predict(x[i])


def test_all_replicas_dead_raises_typed_unavailable(
        fleet_model, small_gaussians, monkeypatch):
    monkeypatch.setattr(router_mod, "MAX_FAILOVERS", 1)
    x, _ = small_gaussians
    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=2) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.05) as handle:
            with ServeClient(*handle.address) as client:
                client.predict(x[0])
                sup.kill("r0")
                sup.kill("r1")
                with pytest.raises(FleetUnavailableError):
                    for _ in range(10):
                        client.predict(x[0])
    # The error is retryable by contract — clients with retry enabled
    # would keep polling a recovering fleet.
    assert FleetUnavailableError.code == "unavailable"


def test_tenant_quota_sheds_at_router(fleet_model, small_gaussians):
    x, _ = small_gaussians
    quotas = TenantQuotas(
        quotas={"greedy": TenantQuotaPolicy(rate=1.0, burst=3.0)}
    )
    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=2) as sup:
        with router_in_thread(sup.start(), quotas=quotas) as handle:
            with ServeClient(*handle.address) as client:
                for _ in range(3):
                    client.predict(x[0], tenant="greedy")
                with pytest.raises(ShedError, match="tenant_quota"):
                    client.predict(x[0], tenant="greedy")
                # Other tenants and anonymous traffic stay unmetered.
                for i in range(10):
                    client.predict(x[i], tenant="modest")
                    client.predict(x[i])
                status = client.request({"op": "fleet-status"})
    assert status["tenant_sheds"] == {"greedy": 1}
    # The shed never reached a replica: all routed outcomes are ok.
    assert all(set(per) == {"ok"} for per in status["routed"].values())


def test_router_shutdown_op(fleet_model):
    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=1) as sup:
        handle = router_in_thread(sup.start())
        with ServeClient(*handle.address) as client:
            resp = client.request({"op": "shutdown"})
            assert resp["ok"]
        handle.thread.join(timeout=10.0)
        assert not handle.thread.is_alive()


def test_set_endpoint_unknown_replica(thread_fleet):
    _, handle = thread_fleet
    with pytest.raises(Exception, match="unknown replica"):
        handle.call(handle.server.set_endpoint("r99", "127.0.0.1", 1))


def test_dead_replica_is_typed_not_raw_reset(fleet_model, small_gaussians):
    """S1 regression: a dead backend surfaces as ConnectionLostError
    (a ServeError) at the client layer, never a raw ConnectionResetError.
    """
    x, _ = small_gaussians
    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=1) as sup:
        (rid, host, port), = sup.start()
        with ServeClient(host, port) as client:
            client.predict(x[0])
            sup.kill(rid)
            with pytest.raises(ConnectionLostError) as excinfo:
                for _ in range(5):
                    client.predict(x[0])
            assert excinfo.value.reason in ("closed", "reset", "refused")

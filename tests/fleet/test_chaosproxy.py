"""Chaos proxy: deterministic network faults, and what the stack does
under them — client retries ride out resets, router failover routes
around a partitioned replica, and the fleet-wide retry budget sheds
instead of amplifying when every failover would fail anyway.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.errors import (
    ConnectionLostError,
    FleetUnavailableError,
    ValidationError,
)
from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.serve import ModelRegistry, ServeClient, admission, serve_in_thread
from tests.fleet.chaosproxy import (
    ChaosPlan,
    ChaosProxy,
    DelayLines,
    Partition,
    ResetAt,
    SlowLoris,
    TruncateAt,
    chaos_proxy_in_thread,
)


@pytest.fixture
def one_server(fleet_model):
    registry = ModelRegistry()
    registry.publish(fleet_model)
    with serve_in_thread(registry) as handle:
        yield handle


def _proxy(handle, plan=None):
    host, port = handle.address
    return chaos_proxy_in_thread(host, port, plan=plan)


class TestPlanGrammar:
    def test_parse_every_kind(self):
        plan = ChaosPlan.parse(
            "partition:3-5, delay:0:0.05:0.2, reset:1@4, trunc:2@1:20, "
            "slow:0:16:0.02"
        )
        kinds = [type(f) for f in plan.faults]
        assert kinds == [Partition, DelayLines, ResetAt, TruncateAt,
                         SlowLoris]
        assert plan.faults[0].last == 5
        assert ChaosPlan.parse("partition:3").faults[0].last is None

    def test_parse_rejects_garbage(self):
        for bad in ("partition", "reset:1", "delay:x:1", "slow:1:2",
                    "nonsense:1"):
            with pytest.raises(ValidationError, match="cannot parse"):
                ChaosPlan.parse(bad)

    def test_fault_validation(self):
        with pytest.raises(ValidationError):
            Partition(0)
        with pytest.raises(ValidationError):
            Partition(5, 3)
        with pytest.raises(ValidationError):
            DelayLines(seconds=-1)
        with pytest.raises(ValidationError):
            ResetAt(conn=1, nth=0)
        with pytest.raises(ValidationError):
            SlowLoris(nbytes=0)

    def test_wildcard_and_indexing(self):
        plan = ChaosPlan([Partition(2, 3)])
        assert not plan.partitioned(1)
        assert plan.partitioned(2) and plan.partitioned(3)
        assert not plan.partitioned(4)


class TestDataPath:
    def test_transparent_passthrough(self, one_server, small_gaussians):
        x, _ = small_gaussians
        with _proxy(one_server) as proxy:
            with ServeClient(*proxy.address) as client:
                assert client.healthz()["ok"] is True
                assert client.predict(x[0]).label >= 0
            snap = proxy.proxy.snapshot()
        assert snap["totals"]["lines"] == 2
        assert snap["totals"]["resets"] == 0

    def test_declarative_partition_by_connection_index(self, one_server):
        with _proxy(one_server, ChaosPlan.parse("partition:2-2")) as proxy:
            with ServeClient(*proxy.address) as c1:
                assert c1.healthz()["ok"] is True
            with pytest.raises(ConnectionLostError):
                ServeClient(*proxy.address).healthz()
            with ServeClient(*proxy.address) as c3:  # 3rd conn: healed
                assert c3.healthz()["ok"] is True
            assert proxy.proxy.counters[2]["partitioned"] == 1

    def test_imperative_partition_and_heal(self, one_server):
        with _proxy(one_server) as proxy:
            with ServeClient(*proxy.address) as client:
                assert client.healthz()["ok"] is True
            proxy.partition()
            with pytest.raises(ConnectionLostError):
                ServeClient(*proxy.address).healthz()
            proxy.heal()
            with ServeClient(*proxy.address) as client:
                assert client.healthz()["ok"] is True

    def test_partition_kills_live_connections(self, one_server):
        with _proxy(one_server) as proxy:
            client = ServeClient(*proxy.address, timeout=5.0)
            assert client.healthz()["ok"] is True
            proxy.partition()
            with pytest.raises(ConnectionLostError):
                # Existing connection, not just new ones, must die.
                client.healthz()
                client.healthz()
            client.close()

    def test_reset_at_exact_response_index(self, one_server):
        with _proxy(one_server, ChaosPlan.parse("reset:0@2")) as proxy:
            client = ServeClient(*proxy.address, timeout=5.0)
            assert client.healthz()["ok"] is True          # line 1 passes
            with pytest.raises(ConnectionLostError):
                client.healthz()                           # line 2: reset
            client.close()
            assert proxy.proxy.counters[1]["resets"] == 1

    def test_truncated_response_is_a_typed_failure(self, one_server):
        with _proxy(one_server, ChaosPlan.parse("trunc:0@1:10")) as proxy:
            client = ServeClient(*proxy.address, timeout=5.0)
            with pytest.raises(ConnectionLostError, match="mid-response"):
                client.healthz()
            client.close()

    def test_delay_is_applied(self, one_server):
        with _proxy(one_server, ChaosPlan.parse("delay:0:0.15")) as proxy:
            with ServeClient(*proxy.address, timeout=5.0) as client:
                t0 = time.monotonic()
                assert client.healthz()["ok"] is True
                assert time.monotonic() - t0 >= 0.15

    def test_slow_loris_preserves_bytes(self, one_server, small_gaussians):
        x, _ = small_gaussians
        with _proxy(one_server, ChaosPlan.parse("slow:0:8:0.001")) as proxy:
            with ServeClient(*proxy.address, timeout=10.0) as client:
                direct = ServeClient(*one_server.address)
                want = direct.predict(x[0]).label
                direct.close()
                assert client.predict(x[0]).label == want

    def test_client_retries_ride_out_a_reset(self, one_server,
                                             small_gaussians, fast_retries):
        x, _ = small_gaussians
        with _proxy(one_server, ChaosPlan.parse("reset:1@1")) as proxy:
            # First connection resets on its first response; the retry
            # reconnects (conn 2, clean) and the predict succeeds.
            with ServeClient(*proxy.address, timeout=5.0, retries=3) as client:
                assert client.predict(x[0]).label >= 0
            assert proxy.proxy.accepted >= 2

    def test_stop_leaves_no_connection_task_pending(self, one_server):
        # stop() with a live connection must cancel and await the
        # connection's handler and pump tasks; otherwise the loop closes
        # with them pending ("Task was destroyed but it is pending!").
        async def scenario():
            proxy = ChaosProxy(*one_server.address)
            await proxy.start()
            reader, writer = await asyncio.open_connection(
                proxy.host, proxy.bound_port
            )
            writer.write(b'{"op": "healthz"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"] is True
            await proxy.stop()
            left = [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()]
            writer.close()
            return left

        assert asyncio.run(scenario()) == []


class TestRouterUnderPartition:
    def test_failover_routes_around_partitioned_replica(self, fleet_model,
                                                        small_gaussians):
        x, _ = small_gaussians
        with ReplicaSupervisor(model=fleet_model, mode="thread",
                               n_replicas=2) as sup:
            endpoints = sup.start()
            # Interpose a proxy in front of r0 only.
            (r0, h0, p0), (r1, h1, p1) = endpoints
            with chaos_proxy_in_thread(h0, p0) as proxy:
                routed = [(r0, *proxy.address), (r1, h1, p1)]
                with router_in_thread(routed, probe_interval_s=0.05) as handle:
                    with ServeClient(*handle.address, timeout=10.0) as client:
                        assert client.predict(x[0]).label >= 0
                        proxy.partition()
                        # Every predict either fails over to r1 or sheds
                        # retryably; none may hard-fail.
                        for i in range(12):
                            try:
                                assert client.predict(x[i]).label >= 0
                            except FleetUnavailableError:
                                pass
                    reg = handle.server.registry
                    fam = reg.get("fleet_routed_total")
                    outcomes = {
                        (s["labels"]["replica"], s["labels"]["outcome"]):
                            s["value"]
                        for s in fam.snapshot()["samples"] if s["value"]
                    }
            assert any(k[1] == "failover" for k in outcomes) or any(
                k[0] == r1 and k[1] == "ok" for k in outcomes
            )

    def test_retry_budget_sheds_instead_of_amplifying(self, fleet_model, monkeypatch,
                                                      small_gaussians):
        x, _ = small_gaussians
        with ReplicaSupervisor(model=fleet_model, mode="thread",
                               n_replicas=1) as sup:
            (rid, host, port), = sup.start()
            with chaos_proxy_in_thread(host, port) as proxy:
                monkeypatch.setattr(admission, "RETRY_BUDGET_RATIO", 0.0)
                monkeypatch.setattr(admission, "RETRY_BUDGET_MIN", 0)
                with router_in_thread([(rid, *proxy.address)],
                                      probe_interval_s=10.0  # no heal mid-test
                                      ) as handle:
                    with ServeClient(*handle.address, timeout=10.0) as client:
                        assert client.predict(x[0]).label >= 0
                        proxy.partition()
                        for i in range(5):
                            with pytest.raises(FleetUnavailableError):
                                client.predict(x[i])
                    router = handle.server
                    # Zero budget: every predict got exactly ONE transport
                    # attempt (the free first try), never a failover storm.
                    assert router.retry_budget.exhausted >= 5
                    assert int(
                        router._m_retry_exhausted.value) >= 5
                    snap = router.fleet_snapshot()
                    assert snap["retry_budget"]["retries"] == 0

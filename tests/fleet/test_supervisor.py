"""ReplicaSupervisor: spawn/kill/restart semantics in both modes.

Process-mode startup costs ~1s per replica (a full interpreter + model
load), so these tests keep fleets to 1–2 replicas; the fleet CI job and
``fleet-bench`` exercise bigger process fleets.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ConnectionLostError, ServeError, ValidationError
import repro.fleet.replica as replica_mod
from repro.fleet import ReplicaSupervisor
from repro.serve import ServeClient, probe


def test_validation():
    with pytest.raises(ValidationError):
        ReplicaSupervisor(mode="coroutine")
    with pytest.raises(ValidationError):
        ReplicaSupervisor("m.json", n_replicas=0)
    with pytest.raises(ValidationError):
        ReplicaSupervisor(mode="process")  # needs model_path
    with pytest.raises(ValidationError):
        ReplicaSupervisor(mode="thread")  # needs model_path or model
    with pytest.raises(ValidationError):
        ReplicaSupervisor(model=object(), mode="thread")._get("r9")


def test_thread_mode_ids_and_endpoints(fleet_model):
    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=3) as sup:
        endpoints = sup.start()
        assert [rid for rid, _, _ in endpoints] == ["r0", "r1", "r2"]
        assert len({port for _, _, port in endpoints}) == 3
        assert all(sup.is_alive(rid) for rid, _, _ in endpoints)
        sup.kill("r1")
        assert not sup.is_alive("r1")
        host, port = sup.restart("r1")
        assert sup.is_alive("r1")
        assert ("r1", host, port) in sup.endpoints()


def test_process_mode_spawn_probe_kill_restart(model_paths, small_gaussians):
    x, _ = small_gaussians
    with ReplicaSupervisor(model_paths["v1"], n_replicas=1,
                           mode="process") as sup:
        (rid, host, port), = sup.start()
        payload = probe(host, port)
        assert payload["status"] == "serving"
        with ServeClient(host, port) as client:
            assert client.predict(x[0]).label >= 0
        assert sup.is_alive(rid)
        sup.kill(rid)
        assert not sup.is_alive(rid)
        with pytest.raises(ConnectionLostError):
            probe(host, port)
        new_host, new_port = sup.restart(rid)
        assert sup.is_alive(rid)
        assert probe(new_host, new_port)["status"] == "serving"
        assert sup._replicas[rid].restarts == 1
        assert "serving model" in sup.diagnostics(rid)


def test_kill_and_restart_close_the_old_stdout_pipe(model_paths):
    # Each dead replica's stdout pipe must be closed, not left for the
    # garbage collector: one leaked descriptor per kill or restart.
    with ReplicaSupervisor(model_paths["v1"], n_replicas=1,
                           mode="process") as sup:
        (rid, _, _), = sup.start()
        first = sup._replicas[rid].proc
        sup.kill(rid)
        assert first.stdout.closed
        sup.restart(rid)
        second = sup._replicas[rid].proc
        sup.restart(rid)
        assert second.stdout.closed
        assert not sup._replicas[rid].proc.stdout.closed


def test_check_and_restart_revives_dead_replicas(model_paths):
    with ReplicaSupervisor(model_paths["v1"], n_replicas=2,
                           mode="process") as sup:
        sup.start()
        assert sup.check_and_restart() == []
        sup.kill("r0")
        assert sup.check_and_restart() == ["r0"]
        assert sup.is_alive("r0")


def test_process_startup_failure_surfaces_diagnostics(tmp_path):
    bogus = tmp_path / "not-a-model.json"
    bogus.write_text("{}")
    sup = ReplicaSupervisor(str(bogus), n_replicas=1, mode="process")
    try:
        with pytest.raises(ServeError, match="failed to announce a port"):
            sup.start()
    finally:
        sup.stop()


def test_replica_that_exits_early_is_not_reported_as_a_timeout(
        tmp_path, monkeypatch):
    # A child that dies before announcing its port must fail the start as
    # soon as it exits, and say so, instead of waiting out the timeout.
    timeout = 60.0
    monkeypatch.setattr(replica_mod, "STARTUP_TIMEOUT_S", timeout)
    sup = ReplicaSupervisor(str(tmp_path / "missing.json"), n_replicas=1,
                            mode="process")
    try:
        t0 = time.monotonic()
        with pytest.raises(ServeError,
                           match=r"exited with code [1-9]\d* before"):
            sup.start()
        assert time.monotonic() - t0 < timeout / 4
    finally:
        sup.stop()

"""Crash recovery: the journal + reconcile protocol end to end.

The property test kills the rollout driver at *every* journal record
boundary (the deterministic ``crash_after`` hook) and asserts the
recovery pass always converges the fleet to exactly one fingerprint —
the old one before the ``staged`` commit point, the new one at or past
it, never a mix. Split-brain restart reconciliation and crash-loop
containment (backoff + quarantine) are covered on the supervisor.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.fleet.replica as replica_mod
from repro.errors import InjectedFault, ServeError
from repro.fleet import (
    ReplicaSupervisor,
    RolloutJournal,
    recover_fleet,
    router_in_thread,
)
from repro.serve import ServeClient


def _fingerprints(sup):
    return {
        rid: rep.registry.current().fingerprint
        for rid, rep in sup._replicas.items()
    }


#: Journal records of one complete 3-replica rollout with stages
#: (0.5, 1.0): intent, canary, canary_promoted, staged, promote(r1),
#: promote(r2), artifact, complete. The commit point is record 4.
N_ROLLOUT_RECORDS = 8
COMMIT_POINT = 4


@pytest.mark.parametrize("cut", range(N_ROLLOUT_RECORDS + 1))
def test_crash_at_every_record_boundary_converges(cut, tmp_path, fleet_model,
                                                  fleet_alt_model,
                                                  model_paths):
    """Kill the driver after ``cut`` journal records; recovery converges."""
    journal_dir = str(tmp_path / "journal")
    # Baseline artifact through a separate instance, so the crash hook
    # counts only the rollout's own records.
    RolloutJournal(journal_dir).set_artifact(
        model_paths["v1"], fleet_model.fingerprint()
    )
    crashing = RolloutJournal(journal_dir, crash_after=cut)
    old_fp = fleet_model.fingerprint()
    new_fp = fleet_alt_model.fingerprint()

    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=3) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.05,
                              journal=crashing) as handle:
            future = asyncio.run_coroutine_threadsafe(
                handle.server.rollout.run(model_paths["v2"]), handle._loop
            )
            if cut < N_ROLLOUT_RECORDS:
                with pytest.raises(InjectedFault):
                    future.result(timeout=30)
            else:
                future.result(timeout=30)  # no crash: clean completion

            # The "restarted" driver replays with a fresh journal handle.
            summary = recover_fleet(endpoints, RolloutJournal(journal_dir))

            expect = new_fp if cut >= COMMIT_POINT else old_fp
            assert summary["converged"], summary
            assert set(_fingerprints(sup).values()) == {expect}, (
                f"cut={cut}: fleet did not converge to "
                f"{'new' if expect == new_fp else 'old'} fingerprint"
            )
            assert summary["unreachable"] == []
            # Terminal record landed: a second recovery pass is a noop.
            again = recover_fleet(endpoints, RolloutJournal(journal_dir))
            assert again["action"] == "noop"
            assert again["converged"]


def test_recovery_rolls_back_when_new_artifact_unloadable(tmp_path,
                                                          fleet_model,
                                                          model_paths):
    """Roll-forward that cannot complete falls back to full rollback.

    The journal says the rollout committed, but the new artifact file is
    gone by recovery time — partial forward progress would be
    split-brain, so every promoted replica must return to the baseline.
    """
    journal_dir = str(tmp_path / "journal")
    missing = str(tmp_path / "vanished.json")
    old_fp = fleet_model.fingerprint()
    j = RolloutJournal(journal_dir)
    j.set_artifact(model_paths["v1"], old_fp)
    j.append("intent", path=missing)
    j.append("canary", replica="r0")
    j.append("canary_promoted", replica="r0", fingerprint="fp-ghost")
    j.append("staged", fingerprint="fp-ghost")

    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=2) as sup:
        endpoints = sup.start()
        # Pretend r0 promoted before the crash: publish the alt model so
        # its fingerprint strays from both baseline and (ghost) target.
        from repro.core.model import KeyBin2Model

        sup._replicas["r0"].registry.publish(
            KeyBin2Model.load(model_paths["v2"]), tag="pre-crash-promote"
        )
        summary = recover_fleet(endpoints, RolloutJournal(journal_dir))
        assert summary["action"] == "roll_back"
        assert set(_fingerprints(sup).values()) == {old_fp}
        assert summary["converged"]


def test_restarted_replica_reconciles_to_journal_artifact(tmp_path,
                                                          fleet_model,
                                                          fleet_alt_model,
                                                          model_paths):
    """Split-brain on restart: the replica must serve the *new* artifact.

    After a completed rollout the supervisor's construction-time model is
    stale. A journal-less restart would rejoin serving it; with the
    journal the replica is reconciled (reload + fingerprint verify)
    before the endpoint is announced.
    """
    journal_dir = str(tmp_path / "journal")
    journal = RolloutJournal(journal_dir)
    journal.set_artifact(model_paths["v1"], fleet_model.fingerprint())
    with ReplicaSupervisor(model=fleet_model, mode="thread", n_replicas=2,
                           journal=journal) as sup:
        sup.start()
        # A completed rollout moved the fleet (and the journal) to v2.
        for rep in sup._replicas.values():
            with ServeClient(rep.host, rep.port) as client:
                client.reload(model_paths["v2"])
        journal.set_artifact(model_paths["v2"], fleet_alt_model.fingerprint())

        sup.kill("r0")
        host, port = sup.restart("r0")
        # Thread-mode restart republishes the construction-time model —
        # the stale one — so only the reconcile step can explain v2 here.
        with ServeClient(host, port) as client:
            assert (client.model_info()["fingerprint"]
                    == fleet_alt_model.fingerprint())
        assert set(_fingerprints(sup).values()) == {
            fleet_alt_model.fingerprint()
        }


def test_sigkilled_process_replica_rejoins_on_journal_artifact(tmp_path,
                                                               model_paths,
                                                               fleet_alt_model):
    """Process-mode acceptance: SIGKILL after rollout, restart serves v2."""
    journal_dir = str(tmp_path / "journal")
    journal = RolloutJournal(journal_dir)
    new_fp = fleet_alt_model.fingerprint()
    with ReplicaSupervisor(model_paths["v1"], n_replicas=1, mode="process",
                           journal=journal) as sup:
        (rid, host, port), = sup.start()
        with ServeClient(host, port) as client:
            client.reload(model_paths["v2"])
        journal.set_artifact(model_paths["v2"], new_fp)

        sup.kill(rid)  # SIGKILL: no drain, no goodbye
        assert sup.check_and_restart() == [rid]
        (_, host, port), = sup.endpoints()
        with ServeClient(host, port) as client:
            assert client.model_info()["fingerprint"] == new_fp


def test_reconcile_failure_never_announces_the_replica(tmp_path, fleet_model):
    """A replica that cannot reach the artifact is torn down, not served."""
    journal_dir = str(tmp_path / "journal")
    journal = RolloutJournal(journal_dir)
    journal.set_artifact(str(tmp_path / "gone.json"), "fp-unreachable")
    with ReplicaSupervisor(model=fleet_model, mode="thread", n_replicas=1,
                           journal=journal) as sup:
        # start() itself does not reconcile (bootstrap trusts the model);
        # the restart path must refuse to readmit.
        sup.start()
        with pytest.raises(ServeError):
            sup.restart("r0")
        assert sup.endpoints() == []  # dead endpoint never advertised
        assert not sup.is_alive("r0")


def test_failed_start_clears_stale_endpoint(model_paths, monkeypatch):
    """Satellite: a failed restart must not advertise the old port."""
    with ReplicaSupervisor(model_paths["v1"], n_replicas=1,
                           mode="process") as sup:
        (rid, _, old_port), = sup.start()
        sup.kill(rid)

        def boom(rep):
            raise ServeError("injected start failure")

        monkeypatch.setattr(sup, "_start_one", boom)
        with pytest.raises(ServeError, match="injected"):
            sup.restart(rid)
        assert sup.endpoints() == []
        assert sup._replicas[rid].failed_starts == 1


def test_crash_loop_backs_off_and_quarantines(fleet_model, monkeypatch):
    """Deterministic clock: fast crashes back off exponentially, then
    quarantine; a stable run resets the streak; unquarantine re-arms."""
    clk = {"t": 0.0}
    monkeypatch.setattr(replica_mod, "QUARANTINE_AFTER", 2)
    sup = ReplicaSupervisor(model=fleet_model, mode="thread", n_replicas=1,
                            clock=lambda: clk["t"])
    try:
        sup.start()
        # Crash 1 (uptime 1s < stable_s): restarts now, backoff armed.
        clk["t"] = 1.0
        sup.kill("r0")
        assert sup.check_and_restart() == ["r0"]
        assert sup._replicas["r0"].crash_streak == 1
        # Crash 2 arrives inside the backoff window: no hot loop.
        clk["t"] = 1.2
        sup.kill("r0")
        assert sup.check_and_restart() == []
        assert not sup.is_alive("r0")
        # Window over: second restart, doubled backoff.
        clk["t"] = 2.0
        assert sup.check_and_restart() == ["r0"]
        assert sup._replicas["r0"].crash_streak == 2
        assert sup._replicas["r0"].not_before == pytest.approx(3.0)
        # Crash 3 within stable_s: streak exceeds quarantine_after.
        clk["t"] = 4.0
        sup.kill("r0")
        assert sup.check_and_restart() == []
        assert sup.quarantined() == ["r0"]
        # Quarantine holds even far in the future.
        clk["t"] = 1000.0
        assert sup.check_and_restart() == []
        sup.unquarantine("r0")
        assert sup.check_and_restart() == ["r0"]
        # A long stable run resets the streak: next death is fresh.
        clk["t"] = 2000.0
        sup.kill("r0")
        assert sup.check_and_restart() == ["r0"]
        assert sup._replicas["r0"].crash_streak == 1
    finally:
        sup.stop()


def test_restart_metrics_count_outcomes(fleet_model):
    from repro.obs import default_registry

    sup = ReplicaSupervisor(model=fleet_model, mode="thread", n_replicas=1)
    try:
        sup.start()
        sup.kill("r0")
        sup.restart("r0")
    finally:
        sup.stop()
    fam = default_registry().get("fleet_replica_restarts_total")
    ok = {
        (s["labels"]["replica"], s["labels"]["outcome"]): s["value"]
        for s in fam.snapshot()["samples"]
    }
    assert ok.get(("r0", "ok"), 0) >= 1

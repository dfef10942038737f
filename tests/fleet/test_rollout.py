"""Staged rollout: promotion, convergence, and canary auto-rollback.

Thread-mode replicas expose their registries, so these tests assert the
per-replica truth (what each registry actually serves), not just the
router's summary.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.fleet.rollout import RolloutError
from repro.serve import ServeClient


def _fingerprints(sup):
    return {
        rid: rep.registry.current().fingerprint
        for rid, rep in sup._replicas.items()
    }


def test_staged_rollout_promotes_whole_fleet(thread_fleet, model_paths,
                                             fleet_alt_model,
                                             small_gaussians):
    sup, handle = thread_fleet
    x, _ = small_gaussians
    new_fp = fleet_alt_model.fingerprint()
    with ServeClient(*handle.address, timeout=30.0) as client:
        for i in range(40):
            client.predict(x[i])  # feed the probe-row reservoir
        version = client.reload(model_paths["v2"], tag="canary-test")
        assert version >= 2
        assert set(_fingerprints(sup).values()) == {new_fp}
        assert client.predict(x[0]).fingerprint == new_fp
        status = client.request({"op": "fleet-status"})
    assert status["rollout"] == "complete"
    states = [entry["state"] for entry in status["rollout_history"]]
    assert states[:2] == ["canary", "staged"]
    assert states[-1] == "complete"


def test_canary_regression_auto_rolls_back(thread_fleet, model_paths,
                                           fleet_model, small_gaussians):
    """The deterministic regression: a loadable artifact with the wrong
    dimensionality. Live-traffic probe rows (old n_features) all fail
    validation on the canary, so the rollout must reject it and leave
    every replica — canary included — on the old fingerprint.
    """
    sup, handle = thread_fleet
    x, _ = small_gaussians
    old_fp = fleet_model.fingerprint()
    with ServeClient(*handle.address, timeout=30.0) as client:
        for i in range(40):
            client.predict(x[i])
        with pytest.raises(ServeError, match="canary .* rejected"):
            client.reload(model_paths["bad"], tag="broken")
        # Fleet-wide convergence back to the old artifact.
        assert set(_fingerprints(sup).values()) == {old_fp}
        assert client.predict(x[1]).fingerprint == old_fp
        status = client.request({"op": "fleet-status"})
    assert status["rollout"] == "rolled_back"
    # Only the canary ever saw the bad model: its registry carries the
    # publish + rollback churn, the others never republished.
    canary_swaps = sup._replicas["r0"].registry.swaps
    assert canary_swaps == 2  # bad publish, then rollback republish
    assert sup._replicas["r1"].registry.swaps == 0
    assert sup._replicas["r2"].registry.swaps == 0


def test_rollouts_metric_counts_outcomes(thread_fleet, model_paths,
                                         small_gaussians):
    sup, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address, timeout=30.0) as client:
        for i in range(20):
            client.predict(x[i])
        client.reload(model_paths["v2"])
        with pytest.raises(ServeError):
            client.reload(model_paths["bad"])
    fam = handle.server.registry.get("fleet_rollouts_total")
    outcomes = {
        s["labels"]["outcome"]: s["value"] for s in fam.snapshot()["samples"]
    }
    assert outcomes == {"complete": 1, "canary_rejected": 1}


def test_unreadable_artifact_rejected_before_promotion(thread_fleet,
                                                       fleet_model):
    sup, handle = thread_fleet
    old_fp = fleet_model.fingerprint()
    with ServeClient(*handle.address, timeout=30.0) as client:
        with pytest.raises(ServeError):
            client.reload("/nonexistent/model.json")
        assert set(_fingerprints(sup).values()) == {old_fp}
        assert client.request({"op": "fleet-status"})["rollout"] == "rolled_back"
    # Reload failed server-side on the canary: no registry ever swapped.
    assert all(rep.registry.swaps == 0 for rep in sup._replicas.values())


def test_fleet_rollback_op_reverts_all_replicas(thread_fleet, model_paths,
                                                fleet_model, fleet_alt_model,
                                                small_gaussians):
    sup, handle = thread_fleet
    x, _ = small_gaussians
    with ServeClient(*handle.address, timeout=30.0) as client:
        for i in range(20):
            client.predict(x[i])
        client.reload(model_paths["v2"])
        assert set(_fingerprints(sup).values()) == {fleet_alt_model.fingerprint()}
        version = client.rollback()
        assert version > 0
        assert set(_fingerprints(sup).values()) == {fleet_model.fingerprint()}


def test_rollout_error_is_serve_error():
    assert issubclass(RolloutError, ServeError)
    assert RolloutError.code == "rollout_failed"

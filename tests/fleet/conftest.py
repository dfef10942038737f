"""Fixtures shared by the fleet tests.

Thread-mode fleets keep the unit tests fast (no subprocess startup) and
let tests reach into replica registries directly; the supervisor tests
cover the process mode explicitly.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import KeyBin2
from repro.fleet import ReplicaSupervisor, router_in_thread


@pytest.fixture(scope="session")
def fleet_model(small_gaussians):
    x, _ = small_gaussians
    return KeyBin2(n_projections=4, seed=3).fit(x).model_


@pytest.fixture(scope="session")
def fleet_alt_model(small_gaussians):
    """Same shape, different seed — a valid artifact to roll out."""
    x, _ = small_gaussians
    return KeyBin2(n_projections=4, seed=11).fit(x).model_


@pytest.fixture(scope="session")
def fleet_bad_model(tiny_gaussians):
    """Loadable but wrong dimensionality — the canary-regression case."""
    x, _ = tiny_gaussians
    return KeyBin2(n_projections=2, seed=9).fit(x).model_


@pytest.fixture
def thread_fleet(fleet_model):
    """3 thread-mode replicas + router; yields (supervisor, handle)."""
    with ReplicaSupervisor(model=fleet_model, mode="thread",
                           n_replicas=3) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.05) as handle:
            yield sup, handle


@pytest.fixture(scope="session")
def model_paths(tmp_path_factory, fleet_model, fleet_alt_model,
                fleet_bad_model):
    """On-disk artifacts: {'v1': ..., 'v2': ..., 'bad': ...}."""
    root = tmp_path_factory.mktemp("fleet-models")
    paths = {}
    for name, model in (("v1", fleet_model), ("v2", fleet_alt_model),
                        ("bad", fleet_bad_model)):
        path = root / f"{name}.json"
        model.save(path)
        paths[name] = str(path)
    return paths

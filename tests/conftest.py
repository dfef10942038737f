"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gaussians import gaussian_mixture
from repro.serve import client as client_mod


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_gaussians():
    """A well-separated 4-cluster dataset shared across tests (read-only)."""
    x, y = gaussian_mixture(n_points=2000, n_dims=16, n_clusters=4, seed=42)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@pytest.fixture(scope="session")
def tiny_gaussians():
    """A faster 2-D, 3-cluster dataset for cheap tests (read-only)."""
    x, y = gaussian_mixture(n_points=600, n_dims=2, n_clusters=3, seed=7,
                            separation=8.0)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@pytest.fixture
def fast_retries(monkeypatch):
    """Retrying clients built next back off 10 ms per attempt, no jitter."""
    monkeypatch.setattr(client_mod, "RETRY_BACKOFF_S", 0.01)
    monkeypatch.setattr(client_mod, "RETRY_JITTER", 0.0)

"""RetryBudget: the windowed fleet-wide retry cap, and the client hookup.

Pure unit tests drive the two-bucket sliding window with an injected
clock; the integration test shares one exhausted budget across a
retrying :class:`ServeClient` and shows it fails fast instead of
hammering a down server.
"""

from __future__ import annotations

import pytest

from repro.errors import ConnectionLostError
from repro.obs.registry import MetricsRegistry, set_default_registry
from repro.serve import ServeClient
from repro.serve import admission
from repro.serve.admission import RetryBudget

from tests.serve.test_client_retry import _FlakyServer


@pytest.fixture
def retry_registry():
    """Fresh default obs registry so retry counters are test-local."""
    reg = MetricsRegistry()
    previous = set_default_registry(reg)
    yield reg
    set_default_registry(previous)


@pytest.fixture
def limits(monkeypatch):
    """Set the budget's ratio and floor (10 s windows) before building one."""
    def set_limits(ratio, min_retries):
        monkeypatch.setattr(admission, "RETRY_BUDGET_RATIO", ratio)
        monkeypatch.setattr(admission, "RETRY_BUDGET_MIN", min_retries)
        monkeypatch.setattr(admission, "RETRY_BUDGET_WINDOW_S", 10.0)
    return set_limits


def _budget():
    clk = {"t": 0.0}
    budget = RetryBudget(clock=lambda: clk["t"])
    return budget, clk


def _note_requests(budget, n):
    for _ in range(n):
        budget.note_request()


class TestWindowMath:
    def test_min_floor_on_an_idle_fleet(self, limits):
        limits(0.2, 3)
        budget, _ = _budget()
        # No requests at all: the floor still allows a burst of 3.
        assert [budget.try_spend() for _ in range(4)] == [
            True, True, True, False
        ]
        assert budget.exhausted == 1

    def test_ratio_scales_with_request_rate(self, limits):
        limits(0.1, 0)
        budget, _ = _budget()
        assert not budget.try_spend()  # zero traffic, zero budget
        _note_requests(budget, 100)
        spent = sum(budget.try_spend() for _ in range(15))
        assert spent == 10  # 0.1 × 100, not one more

    def test_previous_bucket_decays_linearly(self, limits):
        limits(0.1, 0)
        budget, clk = _budget()
        _note_requests(budget, 100)
        # One full window later the traffic is all in the previous
        # bucket; halfway through the next window it counts at 50%.
        clk["t"] = 15.0
        assert budget.snapshot()["requests"] == pytest.approx(50.0)
        spent = sum(budget.try_spend() for _ in range(10))
        assert spent == 5

    def test_long_idle_resets_both_buckets(self, limits):
        limits(1.0, 0)
        budget, clk = _budget()
        _note_requests(budget, 50)
        clk["t"] = 35.0  # > two windows idle
        assert budget.snapshot()["requests"] == 0.0
        assert not budget.try_spend()

    def test_snapshot_shape(self, limits):
        limits(0.5, 1)
        budget, _ = _budget()
        _note_requests(budget, 4)
        assert budget.try_spend()
        snap = budget.snapshot()
        assert snap == {"requests": 4.0, "retries": 1.0, "exhausted": 0}


class TestClientIntegration:
    def test_exhausted_budget_fails_fast(self, retry_registry, limits,
                                         fast_retries):
        """A shared budget at zero turns client retries into fail-fast."""
        server = _FlakyServer(drop_first=10**6)  # never answers
        limits(0.0, 0)
        budget = RetryBudget()
        try:
            client = ServeClient("127.0.0.1", server.port, retries=5,
                                 retry_budget=budget)
            with pytest.raises(ConnectionLostError):
                client.healthz()
            client.close()
        finally:
            server.close()
        # retries=5 would mean up to 6 connections; the budget refused
        # the first retry, so the server saw exactly the free attempt.
        assert budget.exhausted == 1
        assert server.accepts <= 2  # connect + the one request attempt

    def test_budget_allows_normal_retries(self, retry_registry, fast_retries):
        server = _FlakyServer(drop_first=2)
        budget = RetryBudget()
        try:
            with ServeClient("127.0.0.1", server.port, retries=5,
                             retry_budget=budget) as client:
                assert client.healthz()["ok"] is True
        finally:
            server.close()
        assert budget.snapshot()["retries"] >= 1

"""Admission control, circuit breaking, and graceful drain.

Unit tests drive :class:`AdmissionController` / :class:`CircuitBreaker`
with an injected fake clock so token refills and cooldowns are exact.
The end-to-end tests then check the wiring: typed shed errors over the
wire, observability ops bypassing admission while draining, and the
overload property — every request the load generator sends gets exactly
one terminal outcome even when the server drains mid-run.
"""

import threading

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ShedError,
    ValidationError,
)
from repro.serve import admission
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchPolicy,
    CircuitBreaker,
    ModelRegistry,
    ServeClient,
    resolve_deadline,
    run_closed_loop,
    serve_in_thread,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestAdmissionPolicy:
    @pytest.mark.parametrize("kw", [
        {"rate": 0.0},
        {"rate": -1.0},
        {"burst": 0},
        {"max_in_flight": 0},
        {"default_deadline_ms": 0},
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValidationError):
            AdmissionPolicy(**kw)

    def test_default_admits_everything(self):
        ctl = AdmissionController()
        for _ in range(1000):
            ctl.try_admit()
        assert ctl.in_flight == 1000
        assert ctl.shed_counts() == {}


class TestTokenBucket:
    def test_burst_then_rate_shed(self):
        clock = FakeClock()
        ctl = AdmissionController(
            AdmissionPolicy(rate=10.0, burst=2), clock=clock
        )
        ctl.try_admit()
        ctl.try_admit()
        with pytest.raises(ShedError, match="shed"):
            ctl.try_admit()
        assert ctl.shed_counts() == {"rate": 1}

    def test_refill_restores_admission(self):
        clock = FakeClock()
        ctl = AdmissionController(
            AdmissionPolicy(rate=10.0, burst=1), clock=clock
        )
        ctl.try_admit()
        with pytest.raises(ShedError):
            ctl.try_admit()
        clock.advance(0.1)  # exactly one token at 10 rps
        ctl.try_admit()

    def test_bucket_never_exceeds_burst(self):
        clock = FakeClock()
        ctl = AdmissionController(
            AdmissionPolicy(rate=100.0, burst=3), clock=clock
        )
        clock.advance(60.0)  # a long idle period must not bank 6000 tokens
        for _ in range(3):
            ctl.try_admit()
        with pytest.raises(ShedError):
            ctl.try_admit()


class TestInFlightAndDrain:
    def test_in_flight_bound_and_release(self):
        ctl = AdmissionController(AdmissionPolicy(max_in_flight=2))
        ctl.try_admit()
        ctl.try_admit()
        with pytest.raises(ShedError):
            ctl.try_admit()
        assert ctl.shed_counts() == {"in_flight": 1}
        ctl.release()
        ctl.try_admit()  # slot freed
        assert ctl.in_flight == 2

    def test_draining_sheds_everything(self):
        ctl = AdmissionController()
        ctl.start_draining()
        assert ctl.draining
        with pytest.raises(ShedError, match="draining"):
            ctl.try_admit()
        assert ctl.shed_counts() == {"draining": 1}


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def _trip_after_two(self, monkeypatch):
        monkeypatch.setattr(admission, "CIRCUIT_THRESHOLD", 2)
        monkeypatch.setattr(admission, "CIRCUIT_COOLDOWN_S", 1.0)

    def _tripped(self, clock):
        cb = CircuitBreaker(clock=clock)
        cb.record_failure()
        cb.record_failure()
        assert cb.state == "open"
        return cb

    def test_trips_only_on_consecutive_failures(self, monkeypatch):
        monkeypatch.setattr(admission, "CIRCUIT_THRESHOLD", 3)
        cb = CircuitBreaker()
        for _ in range(5):
            cb.record_failure()
            cb.record_failure()
            cb.record_success()  # resets the streak
        assert cb.state == "closed"
        assert cb.trips == 0

    def test_open_fails_fast_until_cooldown(self):
        clock = FakeClock()
        cb = self._tripped(clock)
        with pytest.raises(CircuitOpenError):
            cb.allow()
        clock.advance(0.5)
        with pytest.raises(CircuitOpenError):
            cb.allow()

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        cb = self._tripped(clock)
        clock.advance(1.5)
        cb.allow()  # the probe
        assert cb.state == "half_open"
        with pytest.raises(CircuitOpenError, match="probe"):
            cb.allow()  # concurrent request during the probe window
        cb.record_success()
        assert cb.state == "closed"
        cb.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        cb = self._tripped(clock)
        clock.advance(1.5)
        cb.allow()
        cb.record_failure()
        assert cb.state == "open"
        assert cb.trips == 2
        with pytest.raises(CircuitOpenError):
            cb.allow()

    def test_neutral_outcome_frees_probe_without_moving_state(self):
        """A garbage request that happens to be the half-open probe must
        not wedge the breaker (probe slot stuck) nor close it (it said
        nothing about model health)."""
        clock = FakeClock()
        cb = self._tripped(clock)
        clock.advance(1.5)
        cb.allow()
        cb.record_neutral()  # e.g. the probe was a validation error
        assert cb.state == "half_open"
        cb.allow()  # slot free again: a real probe can proceed
        cb.record_success()
        assert cb.state == "closed"


class TestResolveDeadline:
    POLICY = AdmissionPolicy()

    def test_absent_deadline_is_none(self):
        assert resolve_deadline({"op": "predict"}, self.POLICY) is None

    def test_relative_budget_is_anchored(self):
        deadline = resolve_deadline(
            {"deadline_ms": 250}, self.POLICY, now=100.0
        )
        assert deadline == pytest.approx(100.25)

    def test_policy_default_applies(self):
        policy = AdmissionPolicy(default_deadline_ms=50.0)
        deadline = resolve_deadline({}, policy, now=0.0)
        assert deadline == pytest.approx(0.05)

    def test_clamped_to_max(self, monkeypatch):
        monkeypatch.setattr(admission, "MAX_DEADLINE_MS", 1000.0)
        deadline = resolve_deadline(
            {"deadline_ms": 10_000_000}, self.POLICY, now=0.0
        )
        assert deadline == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [0, -5, "soon", True, [100], float("nan")])
    def test_garbage_budget_is_validation_error(self, bad):
        with pytest.raises(ValidationError):
            resolve_deadline({"deadline_ms": bad}, self.POLICY)


class TestAdmissionEndToEnd:
    def test_rate_limited_server_sheds_typed(self, served_model, small_gaussians):
        x, _ = small_gaussians
        registry = ModelRegistry()
        registry.publish(served_model)
        admission = AdmissionPolicy(rate=1e-6, burst=1)
        with serve_in_thread(
            registry, policy=BatchPolicy(max_delay_s=0.002), admission=admission
        ) as handle:
            with ServeClient(*handle.address) as client:
                client.predict(x[0])  # the burst token
                with pytest.raises(ShedError):
                    client.predict(x[1])
                stats = client.stats()
                assert stats["shed_by_reason"].get("rate", 0) >= 1
                assert stats["shed_total"] >= 1

    def test_observability_bypasses_admission_while_draining(
        self, served_model, small_gaussians
    ):
        """Priority lanes: healthz / stats / metrics / model-info answer
        even when every predict is shed — including during a drain."""
        x, _ = small_gaussians
        registry = ModelRegistry()
        registry.publish(served_model)
        with serve_in_thread(
            registry, policy=BatchPolicy(max_delay_s=0.002)
        ) as handle:
            with ServeClient(*handle.address) as client:
                client.predict(x[0])
                handle.server.admission.start_draining()
                with pytest.raises(ShedError, match="draining"):
                    client.predict(x[1])
                assert client.healthz()["status"] == "draining"
                assert client.stats()["draining"] is True
                assert "prometheus" in client.metrics()
                assert client.model_info()["n_features"] == 16

    def test_shed_is_not_counted_as_server_error(
        self, served_model, small_gaussians
    ):
        x, _ = small_gaussians
        registry = ModelRegistry()
        registry.publish(served_model)
        admission = AdmissionPolicy(rate=1e-6, burst=1)
        with serve_in_thread(
            registry, policy=BatchPolicy(max_delay_s=0.002), admission=admission
        ) as handle:
            with ServeClient(*handle.address) as client:
                client.predict(x[0])
                for _ in range(5):
                    with pytest.raises(ShedError):
                        client.predict(x[1])
                stats = client.stats()
                assert stats["errors_total"] == 0


class TestOverloadDrainProperty:
    def test_every_request_gets_exactly_one_terminal_outcome(
        self, served_model, small_gaussians
    ):
        """Overload the server and drain it mid-run: every request must
        land in exactly one outcome bucket — no hung futures, no double
        counting — and the failures must be explicit (zero client
        timeouts)."""
        x, _ = small_gaussians
        registry = ModelRegistry()
        registry.publish(served_model)
        admission = AdmissionPolicy(rate=200.0, burst=20, max_in_flight=8)
        handle = serve_in_thread(
            registry,
            policy=BatchPolicy(max_delay_s=0.002),
            admission=admission,
            drain_s=2.0,
        )
        stopper = threading.Timer(0.3, handle.stop)
        stopper.start()
        try:
            report = run_closed_loop(
                *handle.address,
                x[:64],
                n_requests=400,
                n_clients=8,
                deadline_ms=2000.0,
                request_timeout_s=10.0,
            )
        finally:
            stopper.cancel()
            handle.stop()
        assert report.requests_sent == 400
        assert sum(report.outcomes.values()) == report.requests_sent
        assert report.requests_ok + report.requests_failed == 400
        # Overload + drain must degrade explicitly, never by hanging the
        # client until its own timeout fires.
        assert report.outcomes["timeout"] == 0
        assert report.shed_total > 0

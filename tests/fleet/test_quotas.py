"""Tenant quotas: bucket math, lazy defaults, bounded state, shed typing."""

from __future__ import annotations

import pytest

from repro.errors import ShedError, ValidationError
import repro.fleet.quotas as quotas_mod
from repro.fleet.quotas import ANONYMOUS, TenantQuotaPolicy, TenantQuotas


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_unmetered_without_config():
    quotas = TenantQuotas()
    assert not quotas.enabled
    for _ in range(1000):
        quotas.try_admit("anyone")
        quotas.try_admit(None)
    assert quotas.shed_counts() == {}


def test_burst_then_rate_limit():
    clock = FakeClock()
    quotas = TenantQuotas(
        quotas={"acme": TenantQuotaPolicy(rate=10.0, burst=5.0)}, clock=clock
    )
    for _ in range(5):
        quotas.try_admit("acme")
    with pytest.raises(ShedError, match="tenant_quota"):
        quotas.try_admit("acme")
    clock.advance(0.1)  # one token refilled at 10/s
    quotas.try_admit("acme")
    with pytest.raises(ShedError):
        quotas.try_admit("acme")
    assert quotas.shed_counts() == {"acme": 2}


def test_refill_caps_at_burst():
    clock = FakeClock()
    quotas = TenantQuotas(
        quotas={"acme": TenantQuotaPolicy(rate=100.0, burst=3.0)}, clock=clock
    )
    clock.advance(60.0)  # a minute idle must not bank 6000 tokens
    for _ in range(3):
        quotas.try_admit("acme")
    with pytest.raises(ShedError):
        quotas.try_admit("acme")


def test_unlisted_tenant_passes_when_no_default():
    clock = FakeClock()
    quotas = TenantQuotas(
        quotas={"acme": TenantQuotaPolicy(rate=1.0, burst=1.0)}, clock=clock
    )
    quotas.try_admit("acme")
    with pytest.raises(ShedError):
        quotas.try_admit("acme")
    for _ in range(100):
        quotas.try_admit("other")  # unmetered


def test_default_policy_gives_each_tenant_its_own_bucket():
    clock = FakeClock()
    quotas = TenantQuotas(default=TenantQuotaPolicy(rate=1.0, burst=2.0),
                          clock=clock)
    quotas.try_admit("a")
    quotas.try_admit("a")
    with pytest.raises(ShedError):
        quotas.try_admit("a")
    quotas.try_admit("b")  # b's bucket is untouched by a's spend
    quotas.try_admit(None)  # anonymous traffic gets its own bucket too
    quotas.try_admit(None)
    with pytest.raises(ShedError):
        quotas.try_admit(None)
    assert quotas.shed_counts() == {"a": 1, ANONYMOUS: 1}


def test_lazy_bucket_count_is_bounded(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(quotas_mod, "MAX_TENANTS", 50)
    quotas = TenantQuotas(default=TenantQuotaPolicy(rate=1.0, burst=1.0),
                          clock=clock)
    for i in range(500):
        clock.advance(0.001)
        quotas.try_admit(f"tenant-{i}")
    assert len(quotas._lazy) <= 50


def test_policy_validation():
    with pytest.raises(ValidationError):
        TenantQuotaPolicy(rate=0.0)
    with pytest.raises(ValidationError):
        TenantQuotaPolicy(rate=5.0, burst=0.5)

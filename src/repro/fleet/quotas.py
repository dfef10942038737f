"""Per-tenant token-bucket quotas, enforced in the router ahead of replicas.

The replica-side :class:`~repro.serve.admission.AdmissionController`
protects a *server* from aggregate overload; it cannot tell tenants
apart, so one greedy tenant can starve everyone within the admitted
budget. The fleet router layers per-tenant token buckets *in front of*
replica admission: a request that exceeds its tenant's quota is shed at
the router — it never consumes a replica token, a connection slot, or a
spot in a micro-batch.

Requests name their tenant with an optional ``"tenant"`` field on the
predict payload; the wire protocol is otherwise unchanged, and requests
without the field fall under the anonymous default quota (if one is
configured) or pass through unmetered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ShedError, ValidationError

__all__ = ["TenantQuotaPolicy", "TenantQuotas"]

#: Bucket key for requests that carry no tenant field.
ANONYMOUS = "_anonymous"
#: Cap on lazily created buckets, so an attacker cycling tenant names
#: cannot grow router memory without bound. Beyond the cap the
#: least-recently-refilled lazy bucket is evicted (it restarts full if the
#: tenant returns — mild over-admission, bounded state).
MAX_TENANTS = 10_000


@dataclass(frozen=True)
class TenantQuotaPolicy:
    """One tenant's token bucket: sustained ``rate`` req/s, ``burst`` cap."""

    rate: float
    burst: float = 10.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValidationError("tenant quota rate must be > 0")
        if self.burst < 1:
            raise ValidationError("tenant quota burst must be >= 1")


class _Bucket:
    __slots__ = ("policy", "tokens", "last_refill")

    def __init__(self, policy: TenantQuotaPolicy, now: float):
        self.policy = policy
        self.tokens = float(policy.burst)
        self.last_refill = now


class TenantQuotas:
    """Token buckets keyed by tenant name.

    Parameters
    ----------
    quotas:
        Explicit per-tenant policies.
    default:
        Policy applied to tenants (and anonymous traffic) without an
        explicit entry; each such tenant gets its *own* lazily created
        bucket. ``None`` means unlisted tenants are not metered at all.
        At most :data:`MAX_TENANTS` such buckets exist.
    clock:
        Injectable monotonic clock for deterministic tests.
    """

    def __init__(
        self,
        quotas: Optional[Dict[str, TenantQuotaPolicy]] = None,
        default: Optional[TenantQuotaPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self.default = default
        self.max_tenants = MAX_TENANTS
        now = clock()
        self._explicit: Dict[str, _Bucket] = {
            name: _Bucket(policy, now) for name, policy in (quotas or {}).items()
        }
        self._lazy: Dict[str, _Bucket] = {}
        self._shed: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        """Whether any metering is configured at all."""
        return bool(self._explicit) or self.default is not None

    def shed_counts(self) -> Dict[str, int]:
        """Requests shed so far, by tenant."""
        return dict(self._shed)

    def _bucket_for(self, tenant: str) -> Optional[_Bucket]:
        bucket = self._explicit.get(tenant)
        if bucket is not None:
            return bucket
        if self.default is None:
            return None
        bucket = self._lazy.get(tenant)
        if bucket is None:
            if len(self._lazy) >= self.max_tenants:
                oldest = min(self._lazy, key=lambda t: self._lazy[t].last_refill)
                del self._lazy[oldest]
            bucket = _Bucket(self.default, self._clock())
            self._lazy[tenant] = bucket
        return bucket

    def try_admit(self, tenant: Optional[str]) -> None:
        """Take one token for ``tenant`` or raise :class:`ShedError`.

        Single-threaded by design: the router calls this from its event
        loop, so no lock is needed on the hot path.
        """
        name = ANONYMOUS if tenant is None else str(tenant)
        bucket = self._bucket_for(name)
        if bucket is None:
            return
        now = self._clock()
        elapsed = now - bucket.last_refill
        if elapsed > 0:
            bucket.tokens = min(
                float(bucket.policy.burst),
                bucket.tokens + elapsed * bucket.policy.rate,
            )
            bucket.last_refill = now
        if bucket.tokens < 1.0:
            self._shed[name] = self._shed.get(name, 0) + 1
            raise ShedError(
                f"request shed (tenant_quota): tenant {name!r} is over its "
                f"{bucket.policy.rate:g} req/s quota"
            )
        bucket.tokens -= 1.0

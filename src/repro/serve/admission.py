"""Admission control and overload protection for the serving front-end.

Backpressure (the micro-batcher's bounded queue) alone is a blunt
instrument: under sustained overload every queued request eventually
times out, each one having burned queue space and model time first. This
module adds the three mechanisms a production front-end layers *ahead of*
the queue so overload degrades into fast, explicit rejections:

* :class:`AdmissionController` — a token bucket (sustained request rate +
  burst) and a max-in-flight bound. A request that cannot be admitted is
  *shed* immediately with :class:`~repro.errors.ShedError`, before it
  costs anything. Draining (graceful shutdown) is just a third shed
  reason.
* deadline resolution (:func:`resolve_deadline`) — turns a request's
  relative ``deadline_ms`` budget into an absolute monotonic deadline the
  batcher can shed against.
* :class:`CircuitBreaker` — trips open after ``threshold`` *consecutive*
  model errors, fails predicts fast while open, and half-opens after a
  cooldown to probe with a single request. A broken hot-swapped model
  turns into immediate ``circuit_open`` rejections instead of a pile-up
  of queued requests all discovering the same failure.

Priority is expressed by *which operations consult the controller*: the
server only gates ``predict``; ``healthz``, ``metrics``, ``stats``,
``model-info`` and the admin ops always bypass shedding so operators can
observe and manage an overloaded server.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import CircuitOpenError, ShedError, ValidationError
from repro.serve.stats import ServeStats

__all__ = [
    "AdmissionPolicy",
    "AdmissionController",
    "CircuitBreaker",
    "RetryBudget",
    "resolve_deadline",
]

#: Clamp on client-supplied deadlines, so one client cannot park work in
#: the queue for minutes.
MAX_DEADLINE_MS = 60_000.0
#: Consecutive model errors that trip the circuit breaker open, and the
#: seconds it stays open before half-opening to probe.
CIRCUIT_THRESHOLD = 5
CIRCUIT_COOLDOWN_S = 1.0
#: Retry budget: retries may reach ``RETRY_BUDGET_RATIO`` × the windowed
#: request rate, or ``RETRY_BUDGET_MIN`` on an idle fleet, over two
#: buckets of ``RETRY_BUDGET_WINDOW_S`` each.
RETRY_BUDGET_RATIO = 0.2
RETRY_BUDGET_MIN = 3
RETRY_BUDGET_WINDOW_S = 10.0


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission knobs. The default admits everything (no behavior change).

    Attributes
    ----------
    rate:
        Sustained admitted-request rate (requests/second) of the token
        bucket. ``None`` disables rate limiting.
    burst:
        Bucket capacity: how many requests above the sustained rate a
        short spike may land before shedding starts. Ignored when
        ``rate`` is ``None``.
    max_in_flight:
        Bound on concurrently admitted predicts (admitted but not yet
        answered). ``None`` disables the bound.
    default_deadline_ms:
        Deadline applied to requests that carry none. ``None`` means
        requests without a deadline never expire server-side. Every
        deadline is clamped to :data:`MAX_DEADLINE_MS`.
    """

    rate: Optional[float] = None
    burst: int = 100
    max_in_flight: Optional[int] = None
    default_deadline_ms: Optional[float] = None

    def __post_init__(self):
        if self.rate is not None and self.rate <= 0:
            raise ValidationError("admission rate must be > 0 (or None)")
        if self.burst < 1:
            raise ValidationError("admission burst must be >= 1")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValidationError("max_in_flight must be >= 1 (or None)")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValidationError("default_deadline_ms must be > 0 (or None)")


class AdmissionController:
    """Token bucket + in-flight bound + drain flag, with shed accounting.

    Thread-safe (one tiny lock) so a drain initiated from another thread
    races cleanly with the event loop admitting requests. ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        stats: Optional[ServeStats] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or AdmissionPolicy()
        self.stats = stats
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(self.policy.burst)
        self._last_refill = clock()
        self._in_flight = 0
        self._draining = False
        self._shed: Dict[str, int] = {}

    # -- state -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    def shed_counts(self) -> Dict[str, int]:
        """Sheds so far by reason (``draining`` / ``rate`` / ``in_flight``)."""
        with self._lock:
            return dict(self._shed)

    def start_draining(self) -> None:
        """Stop admitting new predicts; already-admitted work keeps flowing."""
        self._draining = True

    # -- admission -------------------------------------------------------

    def _refill(self, now: float) -> None:
        # Called under the lock. rate is not None here.
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                float(self.policy.burst), self._tokens + elapsed * self.policy.rate
            )
            self._last_refill = now

    def _shed_with(self, reason: str) -> None:
        self._shed[reason] = self._shed.get(reason, 0) + 1
        if self.stats is not None:
            self.stats.record_shed(reason)
        raise ShedError(
            f"request shed ({reason}): server is "
            + ("draining" if reason == "draining" else "over capacity")
        )

    def try_admit(self) -> None:
        """Admit one predict or raise :class:`~repro.errors.ShedError`.

        On success the caller owns one in-flight slot and MUST pair this
        with :meth:`release` (try/finally) once a terminal response is
        produced.
        """
        with self._lock:
            if self._draining:
                self._shed_with("draining")
            if (
                self.policy.max_in_flight is not None
                and self._in_flight >= self.policy.max_in_flight
            ):
                self._shed_with("in_flight")
            if self.policy.rate is not None:
                self._refill(self._clock())
                if self._tokens < 1.0:
                    self._shed_with("rate")
                self._tokens -= 1.0
            self._in_flight += 1
            if self.stats is not None:
                self.stats.set_in_flight(self._in_flight)

    def release(self) -> None:
        """Return the in-flight slot taken by a successful :meth:`try_admit`."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            if self.stats is not None:
                self.stats.set_in_flight(self._in_flight)


class CircuitBreaker:
    """Trip on consecutive model errors; fail fast; half-open to probe.

    States: *closed* (normal), *open* (every :meth:`allow` raises
    :class:`~repro.errors.CircuitOpenError` until ``cooldown_s`` passes),
    entered after ``threshold`` consecutive failures (the module's
    ``CIRCUIT_*`` constants),
    *half-open* (exactly one probe request is admitted; its outcome closes
    or re-opens the breaker). Only genuine model failures should be
    recorded — validation errors and sheds say nothing about model health.
    """

    def __init__(
        self,
        stats: Optional[ServeStats] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.threshold = CIRCUIT_THRESHOLD
        self.cooldown_s = CIRCUIT_COOLDOWN_S
        self.stats = stats
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> None:
        """Gate one predict; raises :class:`~repro.errors.CircuitOpenError`."""
        with self._lock:
            if self._state == "closed":
                return
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at < self.cooldown_s:
                    raise CircuitOpenError(
                        f"circuit open after {self._consecutive_failures} "
                        f"consecutive model errors; retrying in "
                        f"{self.cooldown_s - (now - self._opened_at):.2f}s"
                    )
                self._state = "half_open"
                self._probe_in_flight = False
                self._export_state()
            # half-open: admit exactly one probe at a time.
            if self._probe_in_flight:
                raise CircuitOpenError("circuit half-open; probe in flight")
            self._probe_in_flight = True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != "closed":
                self._state = "closed"
                self._export_state()

    def record_neutral(self) -> None:
        """Outcome that says nothing about model health (validation, shed).

        Frees a half-open probe slot without closing or re-opening the
        breaker, so a garbage request arriving during the probe window
        cannot wedge the breaker in half-open forever.
        """
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            tripped = (
                self._state == "half_open"
                or (
                    self._state == "closed"
                    and self._consecutive_failures >= self.threshold
                )
            )
            if tripped:
                self._state = "open"
                self._opened_at = self._clock()
                self.trips += 1
                if self.stats is not None:
                    self.stats.record_circuit_trip()
                self._export_state()

    def _export_state(self) -> None:
        # Called under the lock; 0=closed, 1=half-open, 2=open.
        if self.stats is not None:
            code = {"closed": 0, "half_open": 1, "open": 2}[self._state]
            self.stats.set_circuit_state(code)


class RetryBudget:
    """Windowed retry budget: retries may cost at most a fraction of load.

    During a partition every failed request turns into ``max_failovers``
    router retries plus the client's own retry loop — the classic retry
    storm, where the *recovery* traffic is what keeps the fleet down. The
    budget caps aggregate retries at ``ratio`` × the windowed request
    rate (plus a small ``min_retries`` floor so a single failure on an
    idle fleet can still retry); both are the module's ``RETRY_BUDGET_*``
    constants. Beyond that, callers shed instead of amplifying.

    Accounting uses two fixed buckets of ``window_s`` each: the current
    bucket fills, the previous one decays linearly as the window slides —
    constant memory, no timestamp deque, same shape Envoy's retry budget
    uses. Thread-safe; ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.ratio = RETRY_BUDGET_RATIO
        self.min_retries = RETRY_BUDGET_MIN
        self.window_s = RETRY_BUDGET_WINDOW_S
        self._clock = clock
        self._lock = threading.Lock()
        self._epoch = clock()
        self._requests = [0.0, 0.0]   # [previous bucket, current bucket]
        self._retries = [0.0, 0.0]
        self.exhausted = 0

    def _roll(self, now: float) -> float:
        # Called under the lock. Returns the current bucket's fill
        # fraction; slides buckets forward as whole windows elapse.
        elapsed = now - self._epoch
        while elapsed >= self.window_s:
            self._requests = [self._requests[1], 0.0]
            self._retries = [self._retries[1], 0.0]
            self._epoch += self.window_s
            elapsed -= self.window_s
            if elapsed >= self.window_s:
                # More than two whole windows elapsed: nothing the
                # buckets held is still inside the sliding window.
                self._requests = [0.0, 0.0]
                self._retries = [0.0, 0.0]
                self._epoch = now
                elapsed = 0.0
        return elapsed / self.window_s

    def _windowed(self, buckets, frac: float) -> float:
        # Previous bucket decays as the current one fills: a smooth
        # sliding-window estimate from two counters.
        return buckets[0] * (1.0 - frac) + buckets[1]

    def note_request(self) -> None:
        """Count one first-attempt request toward the window."""
        with self._lock:
            self._roll(self._clock())
            self._requests[1] += 1

    def try_spend(self) -> bool:
        """Reserve one retry; ``False`` means shed instead of retrying."""
        with self._lock:
            frac = self._roll(self._clock())
            retries = self._windowed(self._retries, frac)
            allowed = max(
                float(self.min_retries),
                self.ratio * self._windowed(self._requests, frac),
            )
            if retries >= allowed:
                self.exhausted += 1
                return False
            self._retries[1] += 1
            return True

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            frac = self._roll(self._clock())
            return {
                "requests": round(self._windowed(self._requests, frac), 2),
                "retries": round(self._windowed(self._retries, frac), 2),
                "exhausted": self.exhausted,
            }


def resolve_deadline(
    request: Dict[str, Any],
    policy: AdmissionPolicy,
    now: Optional[float] = None,
) -> Optional[float]:
    """Absolute monotonic deadline for one request, or ``None``.

    Reads the request's relative ``deadline_ms`` budget (falling back to
    the policy default), clamps it to :data:`MAX_DEADLINE_MS`, and anchors it
    at ``now``. Raises :class:`~repro.errors.ValidationError` on a
    non-numeric or non-positive budget — a garbage deadline is a client
    bug, not an overload signal.
    """
    ms = request.get("deadline_ms", policy.default_deadline_ms)
    if ms is None:
        return None
    if isinstance(ms, bool) or not isinstance(ms, (int, float)):
        raise ValidationError("'deadline_ms' must be a positive number")
    ms = float(ms)
    if not ms > 0:
        raise ValidationError("'deadline_ms' must be a positive number")
    ms = min(ms, MAX_DEADLINE_MS)
    anchor = time.monotonic() if now is None else now
    return anchor + ms / 1000.0

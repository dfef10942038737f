"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine programming errors (``TypeError`` and friends from
misuse still propagate unchanged).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "CommError",
    "RankFailedError",
    "InjectedFault",
    "CheckpointError",
    "ServeError",
    "QueueFullError",
    "ShedError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "ConnectionLostError",
    "FleetUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied data or parameters are invalid."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model is used before :meth:`fit` was called."""


class CommError(ReproError, RuntimeError):
    """Raised on communication-substrate failures."""


class RankFailedError(CommError):
    """Raised when a peer rank died or raised inside an SPMD section.

    Attributes
    ----------
    rank:
        The rank that failed, or ``-1`` when unknown.
    confirmed:
        ``True`` when the peer itself announced its death (failure
        sentinel) or the executor observed its process exit; ``False``
        when the failure is inferred from a receive timeout, in which case
        the peer may merely be slow. Recovery treats unconfirmed failures
        as suspicions to be re-checked during survivor agreement.
    """

    def __init__(self, message: str, rank: int = -1, confirmed: bool = True):
        super().__init__(message)
        self.rank = rank
        self.confirmed = confirmed


class InjectedFault(ReproError, RuntimeError):
    """Raised by the fault-injection harness to simulate a rank crash.

    Only ever raised when a :class:`repro.comm.faults.FaultPlan` is
    explicitly installed, so seeing it outside a chaos test means the
    plan leaked into a production run.
    """


class CheckpointError(ReproError, RuntimeError):
    """Raised when a streaming-state checkpoint is missing or corrupt.

    A truncated or bit-flipped checkpoint file fails its integrity check
    and raises this instead of deserializing garbage; callers (the
    checkpoint manager) fall back to the previous intact checkpoint.
    """


class ServeError(ReproError, RuntimeError):
    """Raised on model-serving failures (see :mod:`repro.serve`)."""


class QueueFullError(ServeError):
    """Raised when the serving request queue rejects work (backpressure).

    Callers should treat this as a retryable overload signal, not a bug:
    the micro-batcher bounds its queue so that a traffic spike degrades
    into fast rejections instead of unbounded memory growth.
    """

    #: Wire code carried in ``{"ok": false, "err": <code>}`` responses so
    #: clients and load generators can classify failures without parsing
    #: human-oriented messages.
    code = "queue_full"


class ShedError(ServeError):
    """Raised when admission control refuses a request (load shedding).

    Shedding is the *intended* overload behavior: an explicit, immediate
    rejection that costs the server nothing, instead of queueing work that
    will time out after burning model time. Retry against another replica
    or after backoff.
    """

    code = "shed"


class DeadlineExceededError(ServeError):
    """Raised when a request's deadline expired before it was served.

    The deadline travels with the request (``deadline_ms``); the server
    sheds expired entries *before* they reach the model, so the response
    is fast and explicit rather than a client-side timeout.
    """

    code = "deadline_exceeded"


class CircuitOpenError(ServeError):
    """Raised while the server-side circuit breaker is open.

    The breaker trips after consecutive model errors and half-opens after
    a cooldown; while open, predicts fail fast instead of queueing into a
    known-broken model.
    """

    code = "circuit_open"


class ConnectionLostError(ServeError):
    """Raised when the transport to a server died mid-conversation.

    Replaces raw ``ConnectionResetError``/``BrokenPipeError``/timeouts
    from the socket layer so callers (the fleet router, retry loops,
    load generators) can catch one typed error instead of guessing which
    OS-level exception a dead replica produces this time.

    Attributes
    ----------
    reason:
        Why the connection broke: ``timeout`` / ``reset`` / ``closed`` /
        ``refused``. Distinct reasons get distinct retry-metric labels —
        a fleet retrying on timeouts (overload) looks very different from
        one retrying on resets (crashing servers).
    """

    def __init__(self, message: str, reason: str = "reset"):
        super().__init__(message)
        self.reason = reason


class FleetUnavailableError(ServeError):
    """Raised when the fleet router has no healthy replica for a request.

    Every replica is ejected (or the fleet is empty), so there is nowhere
    to route. Retryable: replicas re-admit as soon as health probes
    succeed again.
    """

    code = "unavailable"

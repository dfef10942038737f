"""Clients for the :mod:`repro.serve` TCP/JSON protocol.

Two flavors over the same newline-delimited JSON wire format:

* :class:`ServeClient` — blocking socket client for scripts, notebooks
  and tests;
* :class:`AsyncServeClient` — asyncio client the load generator uses to
  keep hundreds of concurrent connections cheap.

Both raise :class:`ServeError` on protocol-level failures and surface
server-side errors as :class:`ServeError` with the server's message.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    DeadlineExceededError,
    FleetUnavailableError,
    QueueFullError,
    ServeError,
    ShedError,
)
from repro.obs import default_registry
from repro.obs.reqtrace import get_tracer, inject

__all__ = ["ServeClient", "AsyncServeClient", "PredictResult", "probe",
           "async_probe", "PROBE_TIMEOUT_S"]

#: Default budget for liveness probes: tight on purpose. A probe that
#: cannot complete a healthz round trip this fast is evidence of trouble,
#: and the router's ejection logic must not stall behind a slow probe.
PROBE_TIMEOUT_S = 1.0

#: Retry backoff: the base delay doubles per attempt up to the cap, and
#: each sleep is scaled by ``1 ± U(0, RETRY_JITTER)``.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_MAX_S = 2.0
RETRY_JITTER = 0.25

#: Operations that are safe to retry on a broken connection: they do not
#: mutate server state, so replaying one after an ambiguous failure (the
#: request may or may not have been processed) is harmless. ``reload`` and
#: ``shutdown`` are deliberately absent — replaying those could swap a
#: model twice or kill a server that already restarted.
IDEMPOTENT_OPS = frozenset({"predict", "model-info", "stats", "healthz",
                            "metrics"})


# Historic internal name; the typed error now lives in repro.errors so
# the fleet router and tests can catch it without importing a private.
_ConnectionLost = ConnectionLostError


def _lost_reason(exc: OSError) -> str:
    if isinstance(exc, socket.timeout):
        return "timeout"
    if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
        return "reset"
    if isinstance(exc, ConnectionRefusedError):
        return "refused"
    return "reset"


class PredictResult:
    """Labels plus the identity of the model version that produced them."""

    __slots__ = ("labels", "version", "fingerprint")

    def __init__(self, labels: List[int], version: int, fingerprint: str):
        self.labels = labels
        self.version = version
        self.fingerprint = fingerprint

    @property
    def label(self) -> int:
        """The label, for single-point predicts."""
        return self.labels[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PredictResult(labels={self.labels!r}, version={self.version}, "
            f"fingerprint={self.fingerprint!r})"
        )


def _as_payload(x: Union[np.ndarray, Sequence[float]]) -> Any:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ServeError("predict expects one point (1-D) or a batch (2-D)")
    return arr.tolist()


#: Wire ``err`` code → typed client-side exception. Codes the client does
#: not know fall through to the generic handling below, so old clients
#: keep working against newer servers.
_ERR_TYPES = {
    "queue_full": QueueFullError,
    "shed": ShedError,
    "deadline_exceeded": DeadlineExceededError,
    "circuit_open": CircuitOpenError,
    "unavailable": FleetUnavailableError,
}


def _raise_on_error(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        message = response.get("error", "unknown server error")
        exc_type = _ERR_TYPES.get(response.get("err"))
        if exc_type is not None:
            raise exc_type(message)
        if response.get("retryable"):
            raise QueueFullError(message)
        raise ServeError(message)
    return response


def _predict_result(response: Dict[str, Any]) -> PredictResult:
    return PredictResult(
        labels=list(response["labels"]),
        version=int(response["version"]),
        fingerprint=str(response["fingerprint"]),
    )


class ServeClient:
    """Blocking client; one TCP connection, requests pipelined in order.

    Usable as a context manager::

        with ServeClient("127.0.0.1", 8765) as client:
            print(client.predict([0.1] * 16).label)

    With ``retries > 0``, *idempotent* operations (:data:`IDEMPOTENT_OPS`)
    transparently reconnect and retry on connection-refused / reset /
    timed-out / server-closed failures — including a connection that dies
    *mid-response*, which is safe precisely because these ops are
    idempotent. ``reload`` and ``shutdown`` are never retried: after an
    ambiguous failure the request may already have been applied, and
    replaying a mutation is worse than surfacing the error. Retries are
    counted in the obs registry
    (``serve_client_retries_total{op,reason}``), with timeouts and resets
    under distinct ``reason`` values. Retries back off exponentially (the
    module's ``RETRY_*`` constants).

    ``retry_budget`` optionally shares a
    :class:`~repro.serve.admission.RetryBudget` across clients: when a
    process runs many clients (the load generator, a batch worker pool),
    per-client retry loops multiply during an outage exactly like router
    failovers do. A budgeted client counts each first attempt and asks
    the budget before every retry; a refused retry re-raises the
    connection error immediately instead of piling on.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 30.0, retries: int = 0,
                 retry_budget=None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = RETRY_BACKOFF_S
        self.backoff_max = RETRY_BACKOFF_MAX_S
        self.jitter = RETRY_JITTER
        self.retry_budget = retry_budget
        if self.retries < 0:
            raise ServeError("retries must be >= 0")
        self._rng = random.Random()
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        if self.retries:
            self._with_retries("connect", self._connect)
        else:
            self._connect()

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        except OSError as exc:
            raise _ConnectionLost(
                f"cannot connect to {self.host}:{self.port}: {exc}",
                reason=_lost_reason(exc),
            ) from exc
        self._file = self._sock.makefile("rwb")

    def _teardown(self) -> None:
        try:
            self.close()
        except OSError:  # pragma: no cover - already dead
            pass
        self._sock = None
        self._file = None

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw request dict, return the raw response dict.

        No retry at this layer: callers that want retry semantics go
        through the idempotent operation methods.
        """
        if self._file is None:
            self._connect()
        try:
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            self._teardown()
            raise _ConnectionLost(
                f"connection to server lost: {exc}", reason=_lost_reason(exc)
            ) from exc
        if not line:
            self._teardown()
            raise _ConnectionLost("server closed the connection",
                                  reason="closed")
        if not line.endswith(b"\n"):
            # A partial line means the connection died mid-response —
            # feeding the fragment to json.loads would surface a decode
            # error and (worse) skip the retry path on idempotent ops.
            self._teardown()
            raise _ConnectionLost("server closed the connection mid-response",
                                  reason="reset")
        return json.loads(line)

    def _backoff_sleep(self, attempt: int) -> None:
        delay = min(self.backoff_max, self.backoff * (2.0 ** attempt))
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        if delay > 0:
            time.sleep(delay)

    def _with_retries(self, op: str, call: Any) -> Any:
        """Run ``call`` with up to ``self.retries`` reconnect-and-retry."""
        attempt = 0
        if self.retry_budget is not None:
            self.retry_budget.note_request()
        while True:
            try:
                return call()
            except _ConnectionLost as exc:
                if attempt >= self.retries:
                    raise
                if (self.retry_budget is not None
                        and not self.retry_budget.try_spend()):
                    # Budget spent: fail fast with the original error —
                    # during an outage the recovery traffic must not
                    # become the thing keeping the server down.
                    raise
                self._backoff_sleep(attempt)
                attempt += 1
                reg = default_registry()
                if reg.enabled:
                    reg.counter(
                        "serve_client_retries_total",
                        "Idempotent serve-client requests retried after a "
                        "connection failure, by operation and failure kind.",
                        ("op", "reason"),
                    ).labels(op=op, reason=exc.reason).inc()

    def _request_idempotent(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = str(payload["op"])
        assert op in IDEMPOTENT_OPS, f"{op} is not safe to retry"
        if not self.retries:
            return self.request(payload)
        return self._with_retries(op, lambda: self.request(payload))

    def close(self) -> None:
        if self._file is None:
            return
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations ------------------------------------------------------------

    def predict(
        self,
        x: Union[np.ndarray, Sequence[float]],
        deadline_ms: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> PredictResult:
        payload: Dict[str, Any] = {"op": "predict", "x": _as_payload(x)}
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        if tenant is not None:
            payload["tenant"] = str(tenant)
        # Root span of the distributed trace. With no tracer configured
        # this is a shared no-op object and the payload goes out
        # byte-identical to the untraced protocol; typed server errors
        # (shed / deadline / circuit-open) carry a ``.code`` the span's
        # exit records as its status, and error spans are always exported
        # regardless of the head-based sampling decision.
        with get_tracer().root("client/predict") as span:
            if span.context is not None:
                inject(payload, span)
            response = _raise_on_error(self._request_idempotent(payload))
            result = _predict_result(response)
            span.set_attr("version", result.version)
            return result

    def model_info(self) -> Dict[str, Any]:
        return _raise_on_error(self._request_idempotent({"op": "model-info"}))

    def stats(self) -> Dict[str, Any]:
        return _raise_on_error(self._request_idempotent({"op": "stats"}))

    def metrics(self) -> Dict[str, Any]:
        """Scrape telemetry: ``{"prometheus": <text>, "metrics": <json>}``."""
        return _raise_on_error(self._request_idempotent({"op": "metrics"}))

    def healthz(self) -> Dict[str, Any]:
        return _raise_on_error(self._request_idempotent({"op": "healthz"}))

    def probe(self) -> Dict[str, Any]:
        """Tight-deadline liveness probe on a *fresh* connection.

        Unlike :meth:`healthz` this does not reuse (or disturb) this
        client's pipelined connection and never waits ``self.timeout`` —
        a dead replica answers in at most :data:`PROBE_TIMEOUT_S` seconds
        with a typed :class:`~repro.errors.ConnectionLostError`. See
        :func:`probe`.
        """
        # Resolves to the module-level probe(): class attributes are not
        # in scope inside a method body.
        return probe(self.host, self.port)

    def reload(self, path: str, tag: Optional[str] = None) -> int:
        """Ask the server to hot-swap in a model file; returns new version."""
        response = _raise_on_error(self.request({"op": "reload", "path": str(path),
                                                 "tag": tag}))
        return int(response["version"])

    def rollback(self, version: Optional[int] = None) -> int:
        """Ask the server to republish a retained older model version.

        ``version=None`` rolls back to the previously published record;
        an explicit version must still be in the registry's history.
        Admin-gated like ``reload``. Returns the *new* version number
        (versions only move forward, even for a rollback).
        """
        payload: Dict[str, Any] = {"op": "rollback"}
        if version is not None:
            payload["version"] = int(version)
        response = _raise_on_error(self.request(payload))
        return int(response["version"])

    def shutdown(self) -> None:
        """Request a clean server shutdown (response confirms it is stopping)."""
        _raise_on_error(self.request({"op": "shutdown"}))


class AsyncServeClient:
    """Asyncio client for high-concurrency use (one connection per instance)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        # Responses come back in request order on one connection, so
        # concurrent callers must not interleave their write/read pairs.
        self._lock = asyncio.Lock()

    async def connect(self) -> "AsyncServeClient":
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ServeError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        return self

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._reader is None or self._writer is None:
            raise ServeError("client is not connected; call connect() first")
        # A replica that died between health probes must surface as a
        # typed ConnectionLostError here, never as a raw
        # ConnectionResetError / BrokenPipeError from the socket layer.
        try:
            async with self._lock:
                writer, reader = self._writer, self._reader
                if writer is None or reader is None:
                    # Another task tore this connection down (timeout
                    # recovery closes + reconnects) between our check
                    # above and acquiring the lock.
                    raise ConnectionLostError(
                        "connection closed while request was queued",
                        reason="closed",
                    )
                writer.write(json.dumps(payload).encode("utf-8") + b"\n")
                await writer.drain()
                line = await reader.readline()
        except OSError as exc:
            raise ConnectionLostError(
                f"connection to server lost: {exc}", reason=_lost_reason(exc)
            ) from exc
        if not line or not line.endswith(b"\n"):
            reason = "closed" if not line else "reset"
            raise ConnectionLostError(
                "server closed the connection"
                + ("" if not line else " mid-response"),
                reason=reason,
            )
        return json.loads(line)

    async def predict(
        self,
        x: Union[np.ndarray, Sequence[float]],
        deadline_ms: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> PredictResult:
        payload: Dict[str, Any] = {"op": "predict", "x": _as_payload(x)}
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        if tenant is not None:
            payload["tenant"] = str(tenant)
        # Same root-span discipline as the blocking client; see
        # ServeClient.predict for the sampling / error-status contract.
        with get_tracer().root("client/predict") as span:
            if span.context is not None:
                inject(payload, span)
            response = _raise_on_error(await self.request(payload))
            result = _predict_result(response)
            span.set_attr("version", result.version)
            return result

    async def healthz(self) -> Dict[str, Any]:
        return _raise_on_error(await self.request({"op": "healthz"}))

    async def stats(self) -> Dict[str, Any]:
        return _raise_on_error(await self.request({"op": "stats"}))

    async def metrics(self) -> Dict[str, Any]:
        return _raise_on_error(await self.request({"op": "metrics"}))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()


def probe(host: str, port: int,
          timeout: float = PROBE_TIMEOUT_S) -> Dict[str, Any]:
    """One tight-deadline liveness probe: connect, healthz, disconnect.

    The shared building block for the fleet router's health loop, the
    replica supervisor, and tests — one definition of "is this replica
    alive", with one timeout discipline. Uses a fresh connection on
    purpose: a cached connection can look healthy while the listener is
    gone, and accepting a new connection is part of what "alive" means.

    Returns the healthz payload. Raises :class:`ConnectionLostError`
    (``reason`` = ``refused`` / ``timeout`` / ``reset`` / ``closed``) on
    a dead or wedged server and :class:`ServeError` on a healthz-level
    failure — never a raw socket exception.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            fh = sock.makefile("rwb")
            fh.write(b'{"op": "healthz"}\n')
            fh.flush()
            line = fh.readline()
    except OSError as exc:
        raise ConnectionLostError(
            f"probe of {host}:{port} failed: {exc}", reason=_lost_reason(exc)
        ) from exc
    if not line or not line.endswith(b"\n"):
        raise ConnectionLostError(
            f"probe of {host}:{port}: server closed the connection",
            reason="closed" if not line else "reset",
        )
    return _raise_on_error(json.loads(line))


async def async_probe(host: str, port: int,
                      timeout: float = PROBE_TIMEOUT_S) -> Dict[str, Any]:
    """Asyncio twin of :func:`probe` (same semantics, same typed errors).

    The whole probe — connect, healthz round trip, close — shares one
    ``timeout`` budget, so a wedged replica costs the router's health
    loop a bounded, predictable amount of time.
    """

    async def _run() -> Dict[str, Any]:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise ConnectionLostError(
                f"probe of {host}:{port} failed: {exc}",
                reason=_lost_reason(exc),
            ) from exc
        try:
            writer.write(b'{"op": "healthz"}\n')
            await writer.drain()
            line = await reader.readline()
        except OSError as exc:
            raise ConnectionLostError(
                f"probe of {host}:{port} failed: {exc}",
                reason=_lost_reason(exc),
            ) from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - already dead
                pass
        if not line or not line.endswith(b"\n"):
            raise ConnectionLostError(
                f"probe of {host}:{port}: server closed the connection",
                reason="closed" if not line else "reset",
            )
        return _raise_on_error(json.loads(line))

    try:
        return await asyncio.wait_for(_run(), timeout)
    except asyncio.TimeoutError:
        raise ConnectionLostError(
            f"probe of {host}:{port} timed out after {timeout}s",
            reason="timeout",
        ) from None

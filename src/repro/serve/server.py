"""Online model server: asyncio TCP front-end over the serve pipeline.

Stdlib-only (asyncio + json) newline-delimited JSON protocol. One request
per line, one response per line::

    {"op": "predict", "x": [0.1, 0.2, ...]}          # single point
    {"op": "predict", "x": [[...], [...]]}           # batch of points
    {"op": "predict", "x": [...], "deadline_ms": 50} # with latency budget
    {"op": "model-info"}
    {"op": "stats"}
    {"op": "metrics"}                                # Prometheus text + JSON
    {"op": "healthz"}
    {"op": "reload", "path": "model.json", "tag": "nightly"}   # admin
    {"op": "rollback"}                                         # admin
    {"op": "rollback", "version": 3}                           # admin
    {"op": "shutdown"}                                         # admin

Admin ops (``reload``, ``rollback``, ``shutdown``) are served only on
loopback binds unless ``allow_admin=True`` — anyone who can reach the
socket could otherwise load arbitrary files, swap models, or stop the
process. ``rollback`` republishes a retained older registry version
(fresh version number, old weights) — the fleet rollout manager's
escape hatch when a canary regresses.

Responses always carry ``"ok"``; predict responses carry ``"labels"``,
``"version"`` and ``"fingerprint"`` — the exact model version that
labeled the points, which stays meaningful across hot-swaps. Failure
responses from the overload machinery additionally carry a short ``"err"``
code (``shed`` / ``deadline_exceeded`` / ``circuit_open`` /
``queue_full``) so clients classify outcomes without parsing messages.

Only ``predict`` consults admission control; every other op is a priority
lane that bypasses shedding, so health checks, metric scrapes and admin
intervention keep working on a server that is actively shedding load.

Single-point predicts flow through the :class:`MicroBatcher`, so many
concurrent clients coalesce into vectorized model calls. Multi-point
predicts are already batches and go straight to the service. The split
matters: micro-batching buys ~an order of magnitude of throughput for
the single-point case (see ``benchmarks/test_serve_throughput.py``)
while adding nothing but latency to requests that arrive pre-batched.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent import futures
from typing import Any, Coroutine, Dict, Optional, Tuple

import numpy as np

from repro.core.model import KeyBin2Model
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ShedError,
    ValidationError,
)
from repro.obs import (
    MetricsRegistry,
    default_registry,
    ensure_core_series,
    render_json,
    render_prometheus,
    trace,
)
from repro.obs.reqtrace import get_tracer
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    CircuitBreaker,
    resolve_deadline,
)
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import LabelCache
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.stats import ServeStats

__all__ = ["InferenceService", "LineServer", "ModelServer", "ServerHandle",
           "serve_in_thread"]

#: Binds that serve the admin ops when ``allow_admin`` is left at ``None``.
_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})
#: Ops that can read a file, swap the model or stop the process. A tuple,
#: not a set: a request's ``op`` may be any JSON value, unhashable ones too.
_ADMIN_OPS = ("reload", "rollback", "shutdown")
#: Longest a caller waits on a server thread to bind, to stop, or to run a
#: coroutine handed to it.
THREAD_TIMEOUT_S = 10.0
#: Longest request line (bytes, newline excluded) a server reads: a
#: 400-row, 16-dim batch predict is about 128 KB. A longer line is
#: discarded and answered with an error; the connection stays up.
LINE_LIMIT = 1 << 22


def json_line(payload: Any) -> bytes:
    """One wire frame: ``payload`` as JSON, then the newline delimiter."""
    return json.dumps(payload).encode("utf-8") + b"\n"


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line, newline included; what is left at EOF (maybe a cut
    short line, maybe ``b""``); or ``None`` for a line longer than the
    reader's limit, which is read through its newline and dropped."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return b""  # EOF inside the long line
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def metrics_payload(registry: MetricsRegistry) -> Dict[str, Any]:
    """Both exposition forms over ``registry`` and the process-global one."""
    registries = [registry, default_registry()]
    return {
        "prometheus": render_prometheus(registries),
        "metrics": render_json(registries),
    }


class InferenceService:
    """Registry + cache + stats composed into the predict pipeline.

    This is the transport-free core the TCP server, the in-process
    benchmarks, and the CI smoke test all share. A whole batch is labeled
    by ONE registry snapshot, taken at the top of :meth:`predict_rows` —
    the hot-swap consistency guarantee lives on that line.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        cache: Optional[LabelCache] = None,
        stats: Optional[ServeStats] = None,
    ):
        self.registry = registry
        self.cache = cache if cache is not None else LabelCache()
        self.stats = stats if stats is not None else ServeStats()
        #: Cache accounting of the most recent predict_rows call; read by
        #: the micro-batcher's flush_info hook so traced model-call spans
        #: can report batch size and cache efficacy. Plain dict replace
        #: (atomic under the GIL) — no lock on the hot path.
        self.last_flush_info: Dict[str, int] = {}

    def predict_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, ModelRecord]:
        """Label a (B × N) batch; returns ``(labels, record)``.

        The label of a point is a pure function of its grid cell, so the
        cluster-table lookup is served from the LRU per unique cell code;
        only codes never seen under this model version hit the table.
        """
        with trace.span("predict"):
            record = self.registry.current()  # one consistent snapshot per batch
            model = record.model
            with trace.span("codes"):
                codes = model.cell_codes_for(rows)
            uniq, inverse = np.unique(codes, return_inverse=True)
            uniq_labels = np.empty(uniq.size, dtype=np.int64)
            miss_positions = []
            for i, code in enumerate(uniq):
                hit = self.cache.get(record.version, int(code))
                if hit is None:
                    miss_positions.append(i)
                else:
                    uniq_labels[i] = hit
            if miss_positions:
                with trace.span("table_lookup"):
                    fresh = model.table.lookup(uniq[miss_positions])
                for pos, label in zip(miss_positions, fresh):
                    uniq_labels[pos] = label
                    self.cache.put(record.version, int(uniq[pos]), int(label))
            self.last_flush_info = {
                "unique_codes": int(uniq.size),
                "unique_misses": len(miss_positions),
            }
            return uniq_labels[inverse], record

    def predict_single(self, row: np.ndarray) -> Tuple[int, ModelRecord]:
        """One point per call — the naive loop the batcher is measured against."""
        labels, record = self.predict_rows(np.asarray(row, dtype=np.float64)[None, :])
        return int(labels[0]), record


class LineServer:
    """Newline-delimited TCP server core of :class:`ModelServer` and the router.

    One reply per request line, in order per connection. The newline is the
    frame delimiter: a last line cut short by EOF is dropped unanswered (a
    router could not relay it; the replica would wait out the forward
    timeout). The base deals in bytes and never parses a line; a subclass
    supplies :meth:`answer` and the :meth:`on_start`/:meth:`on_stop` hooks.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`bound_port` after :meth:`start`).
    allow_admin:
        Whether the ``reload``, ``rollback`` and ``shutdown`` ops are
        served. They let any client that can reach the socket read an
        arbitrary filesystem path, swap the model or stop the process, so
        the default (``None``) enables them only on loopback binds; pass
        ``True`` to enable them on an exposed ``host`` (put real auth in
        front first) or ``False`` to disable them everywhere.
    drain_s:
        Hard cutoff on :meth:`stop`'s graceful drain and connection close.
    """

    #: Names the server in its errors and its thread.
    kind = "server"

    def __init__(self, host: str, port: int, allow_admin: Optional[bool],
                 drain_s: float = 5.0):
        self.host = host
        self.port = port
        self.allow_admin = (
            host in _LOOPBACK_HOSTS if allow_admin is None else allow_admin
        )
        self.drain_s = float(drain_s)
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._clients: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._busy = 0  # requests between line read and reply write
        self.bound_port: Optional[int] = None

    async def answer(self, line: bytes) -> Tuple[bytes, bool]:
        """Reply to one request line: ``(reply line, close after it)``."""
        raise NotImplementedError

    async def on_start(self) -> None:
        """Start what serves requests besides the listener (before bind)."""

    async def on_stop(self) -> None:
        """Stop what :meth:`on_start` started (after the drain)."""

    def admin_refusal(self, op: Any) -> Optional[str]:
        """The error for an admin ``op`` this bind does not serve, else None."""
        if op in _ADMIN_OPS and not self.allow_admin:
            return (f"admin op {op!r} is disabled on this {self.kind} "
                    "(non-loopback bind without allow_admin)")
        return None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ServeError(f"{self.kind} already started")
        self._shutdown = asyncio.Event()
        await self.on_start()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port, limit=LINE_LIMIT
            )
        except BaseException:
            # A failed bind must not leave on_start's tasks pending on a
            # loop that is about to close.
            await self.on_stop()
            raise
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives or the handle stops us."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close.

        Requests already read keep flowing and get their replies; after
        ``drain_s`` (hard cutoff) the rest are abandoned and their replies
        race the connection close. Then :meth:`on_stop` runs, and every
        client connection is closed and its handler awaited within the same
        cutoff (Python 3.11 logs an error for a handler that the loop's
        teardown has to cancel instead).
        """
        server, self._server = self._server, None
        if server is None:
            return
        server.close()  # no new connections
        cutoff = time.monotonic() + self.drain_s
        while self._busy > 0 and time.monotonic() < cutoff:
            await asyncio.sleep(0.005)
        await self.on_stop()
        handlers = list(self._clients.values())
        for writer in list(self._clients):
            writer.close()
        if handlers:
            await asyncio.wait(handlers,
                               timeout=max(cutoff - time.monotonic(), 0.0))
        assert self._shutdown is not None
        self._shutdown.set()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients[writer] = asyncio.current_task()
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    writer.write(json_line({
                        "ok": False,
                        "error": f"request line longer than {LINE_LIMIT} bytes",
                    }))
                    await writer.drain()
                    continue
                if not line.endswith(b"\n"):  # EOF, or a line EOF cut short
                    break
                # _busy covers the request until its reply is written, so a
                # drain only proceeds once every read request has had its
                # terminal reply flushed to the socket.
                self._busy += 1
                try:
                    reply, stop_after = await self.answer(line)
                    writer.write(reply)
                    await writer.drain()
                finally:
                    self._busy -= 1
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):  # client vanished
            pass
        finally:
            self._clients.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- thread launcher ---------------------------------------------------------

    def run_in_thread(self) -> "ServerHandle":
        """Serve on a daemon thread; block until bound.

        A bind error raises :class:`ServeError` once the thread has ended.
        """
        bound: futures.Future = futures.Future()  # the loop, once bound

        async def _main():
            await self.start()
            bound.set_result(asyncio.get_running_loop())
            await self.serve_until_shutdown()

        def _run() -> None:
            try:
                # asyncio.run cancels whatever is still pending (connection
                # handlers past the drain) before it closes the loop, so no
                # task outlives the thread.
                asyncio.run(_main())
            except BaseException as exc:  # surface bind errors to the caller
                if not bound.done():
                    bound.set_exception(exc)

        thread = threading.Thread(target=_run, name=f"repro-{self.kind}",
                                  daemon=True)
        thread.start()
        try:
            loop = bound.result(THREAD_TIMEOUT_S)
        except futures.TimeoutError:
            raise ServeError(f"{self.kind} failed to start within timeout") from None
        except Exception as exc:
            thread.join(THREAD_TIMEOUT_S)
            raise ServeError(f"{self.kind} failed to start: {exc}") from None
        return ServerHandle(self, thread, loop)


class ServerHandle:
    """A :class:`LineServer` on a daemon thread (test/bench/CLI helper)."""

    def __init__(self, server: LineServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.bound_port is not None
        return self.server.host, self.server.bound_port

    def call(self, coro: Coroutine) -> Any:
        """Run ``coro`` on the server's loop; return (or raise) its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(THREAD_TIMEOUT_S)

    def stop(self) -> None:
        """Stop as the ``shutdown`` op does (drain, then close); wait for it."""
        if self.thread.is_alive():
            assert self.server._shutdown is not None
            try:
                self._loop.call_soon_threadsafe(self.server._shutdown.set)
            except RuntimeError:  # loop already closed on its own
                pass
            self.thread.join(THREAD_TIMEOUT_S)
        if self.thread.is_alive():  # pragma: no cover - watchdog only
            raise ServeError(f"{self.server.kind} thread failed to stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ModelServer(LineServer):
    """Asyncio TCP server exposing a registry-backed model.

    Parameters
    ----------
    registry:
        Shared :class:`ModelRegistry`. Publishing to it (from streaming
        refresh, another thread, or the ``reload`` RPC) hot-swaps what
        this server answers with, without dropping in-flight requests.
    host, port, allow_admin, drain_s:
        As for :class:`LineServer`.
    policy:
        Micro-batching knobs (:class:`BatchPolicy`).
    admission:
        :class:`AdmissionPolicy` gating ``predict`` requests (rate,
        in-flight bound, deadline defaults). The default admits
        everything. Only ``predict`` consults admission — ``healthz``,
        ``metrics``, ``stats``, ``model-info`` and the admin ops always
        bypass shedding, so an overloaded server stays observable and
        manageable.

    The label cache and the circuit breaker run at their defaults
    (:class:`LabelCache`, :class:`CircuitBreaker`).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[BatchPolicy] = None,
        allow_admin: Optional[bool] = None,
        admission: Optional[AdmissionPolicy] = None,
        drain_s: float = 5.0,
    ):
        super().__init__(host, port, allow_admin, drain_s)
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.stats = ServeStats()
        self.cache = LabelCache()
        self.service = InferenceService(registry, cache=self.cache, stats=self.stats)
        self.batcher = MicroBatcher(
            self.service.predict_rows, self.policy, stats=self.stats,
            flush_info=lambda: self.service.last_flush_info,
        )
        self.admission = AdmissionController(admission, stats=self.stats)
        self.circuit = CircuitBreaker(stats=self.stats)

    # -- lifecycle -------------------------------------------------------------

    async def on_start(self) -> None:
        self.batcher.start()

    async def on_stop(self) -> None:
        await self.batcher.stop()  # flushes anything still pending

    async def stop(self) -> None:
        if self._server is not None:
            # New predicts are shed with reason 'draining' from here on.
            self.admission.start_draining()
        await super().stop()

    # -- request handling ------------------------------------------------------

    async def answer(self, line: bytes) -> Tuple[bytes, bool]:
        response = await self._dispatch(line)
        stop_after = response.pop("_shutdown", False)
        return json_line(response), stop_after

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            self.stats.record_error()
            return {"ok": False, "error": f"malformed JSON request: {exc}"}
        if not isinstance(request, dict):
            self.stats.record_error()
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "predict":
                return await self._op_predict(request)
            if op == "model-info":
                return {"ok": True, **self.registry.current().info()}
            if op == "stats":
                return {"ok": True, **self._stats_payload()}
            if op == "metrics":
                return {"ok": True, **self._metrics_payload()}
            if op == "healthz":
                return self._op_healthz()
            refusal = self.admin_refusal(op)
            if refusal:
                raise ServeError(refusal)
            if op == "reload":
                return await self._op_reload(request)
            if op == "rollback":
                return self._op_rollback(request)
            if op == "shutdown":
                assert self._shutdown is not None
                self._shutdown.set()
                return {"ok": True, "stopping": True, "_shutdown": True}
            self.stats.record_error()
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (QueueFullError, ShedError, CircuitOpenError) as exc:
            # Overload rejections: explicit, typed, retryable (against a
            # replica or after backoff) — and deliberately NOT counted as
            # server errors; shedding is the intended behavior.
            return {
                "ok": False,
                "error": str(exc),
                "err": exc.code,
                "retryable": True,
            }
        except DeadlineExceededError as exc:
            # Not retryable as-is: the client's budget is spent. A fresh
            # request with a fresh deadline is the client's call.
            return {"ok": False, "error": str(exc), "err": exc.code}
        except (ServeError, ValidationError) as exc:
            self.stats.record_error()
            return {"ok": False, "error": str(exc)}

    async def _op_predict(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # from_wire is a no-op span unless the request carried a trace
        # context *and* this process has a tracer configured; the span's
        # exit converts any typed overload/deadline exception into an
        # error status, which the tracer always exports (sampled or not).
        t0 = time.perf_counter()
        with get_tracer().from_wire(request, "server/predict") as span:
            x = request.get("x")
            if x is None:
                raise ValidationError("predict request needs an 'x' field")
            try:
                rows = np.asarray(x, dtype=np.float64)
            except (ValueError, TypeError):
                raise ValidationError(
                    "'x' must be a numeric point or a batch of equal-length points"
                ) from None
            if rows.ndim == 1:
                rows = rows[None, :]
            if rows.ndim != 2 or rows.shape[0] == 0:
                raise ValidationError("'x' must be one point or a non-empty batch")
            # Deadline parsing happens before admission: a garbage deadline is
            # a client bug (ValidationError), not an overload signal, and must
            # not consume a token.
            deadline = resolve_deadline(request, self.admission.policy)
            with get_tracer().child_of(span, "server/admission"):
                self.admission.try_admit()  # ShedError under overload / drain
            try:
                self.stats.record_request(rows.shape[0])
                self.circuit.allow()  # CircuitOpenError while tripped
                try:
                    labels, record = await self._predict_admitted(
                        rows, deadline, span
                    )
                except (ValidationError, DeadlineExceededError, QueueFullError):
                    # Says nothing about model health — free any probe slot
                    # without moving the breaker.
                    self.circuit.record_neutral()
                    raise
                except Exception:
                    self.circuit.record_failure()
                    raise
                self.circuit.record_success()
            finally:
                self.admission.release()
            span.set_attr("rows", int(rows.shape[0]))
            span.set_attr("version", record.version)
            self.stats.record_request_latency(time.perf_counter() - t0)
            return {
                "ok": True,
                "labels": labels,
                "version": record.version,
                "fingerprint": record.fingerprint,
            }

    async def _predict_admitted(self, rows: np.ndarray, deadline, span):
        """Model-call half of predict; runs with an admission slot held."""
        if rows.shape[0] == 1:
            # Validate the lone row before it enters the micro-batcher: it
            # shares a flush (one stacked matrix, one model call) with other
            # clients' rows, and one bad row must not fail their requests.
            expected = self.registry.current().n_features
            if rows.shape[1] != expected:
                raise ValidationError(
                    f"model expects {expected} features, got {rows.shape[1]}"
                )
            if not np.all(np.isfinite(rows)):
                raise ValidationError(
                    "'x' contains non-finite value(s) (NaN/Inf)"
                )
            label, record = await self.batcher.submit(
                rows[0], deadline=deadline, trace_ctx=span.context
            )
            return [label], record
        # Pre-batched request: vectorize directly, skip the linger. The
        # batcher never sees it, so check the deadline here at dispatch.
        if deadline is not None and time.monotonic() > deadline:
            self.stats.record_deadline_expired("arrival")
            raise DeadlineExceededError("deadline expired before dispatch")
        t0 = time.perf_counter()
        arr, record = self.service.predict_rows(rows)
        service_s = time.perf_counter() - t0
        self.stats.record_batch(rows.shape[0], service_s, record.version)
        get_tracer().emit_timed(
            "server/model_call", span, service_s,
            attrs={"batch_size": int(rows.shape[0]),
                   **self.service.last_flush_info},
        )
        return [int(v) for v in arr], record

    def _op_healthz(self) -> Dict[str, Any]:
        record = self.registry.current_or_none()
        # version + fingerprint let a scraper correlate health samples with
        # metrics series across hot-swaps (the registry tracks versions).
        status = "serving" if record is not None else "no-model"
        if self.admission.draining:
            status = "draining"
        return {
            "ok": True,
            "status": status,
            "version": None if record is None else record.version,
            "fingerprint": None if record is None else record.fingerprint,
            "uptime_s": round(self.stats.uptime_s, 3),
            "queue_depth": self.batcher.queue_depth,
            "in_flight": self.admission.in_flight,
            "circuit": self.circuit.state,
        }

    async def _op_reload(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = request.get("path")
        if not path:
            raise ValidationError("reload request needs a 'path' field")
        tag = request.get("tag")

        def _load_and_publish() -> int:
            model = KeyBin2Model.load(path)
            return self.registry.publish(model, tag=tag)

        try:
            # File IO + fingerprint hashing are slow; run them off the event
            # loop so in-flight predicts keep flowing during a reload.
            version = await asyncio.to_thread(_load_and_publish)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # A missing/corrupt file must not kill the connection — the
            # currently published model keeps serving.
            raise ServeError(f"reload failed for {path!r}: {exc}") from None
        return {"ok": True, "version": version}

    def _op_rollback(self, request: Dict[str, Any]) -> Dict[str, Any]:
        version = request.get("version")
        if version is not None and (
            isinstance(version, bool) or not isinstance(version, int)
        ):
            raise ValidationError("'version' must be an integer when given")
        new_version = self.registry.rollback(version)
        record = self.registry.current()
        return {
            "ok": True,
            "version": new_version,
            "fingerprint": record.fingerprint,
        }

    def _stats_payload(self) -> Dict[str, Any]:
        payload = self.stats.snapshot()
        payload["cache"] = self.cache.snapshot()
        payload["queue_depth"] = self.batcher.queue_depth
        payload["in_flight"] = self.admission.in_flight
        payload["draining"] = self.admission.draining
        payload["circuit_state"] = self.circuit.state
        payload["registry"] = self.registry.info()
        record = self.registry.current_or_none()
        payload["model_version"] = None if record is None else record.version
        payload["model_fingerprint"] = (
            None if record is None else record.fingerprint
        )
        return payload

    def _metrics_payload(self) -> Dict[str, Any]:
        """Both exposition forms over the serve + process-global registries."""
        ensure_core_series(default_registry())
        reg = self.stats.registry
        self.stats.snapshot()  # refreshes the uptime gauge
        self.cache.export_metrics(reg)
        reg.gauge(
            "serve_queue_depth", "Rows waiting in the micro-batcher."
        ).set(self.batcher.queue_depth)
        record = self.registry.current_or_none()
        reg.gauge(
            "serve_model_version", "Currently published model version."
        ).set(0 if record is None else record.version)
        reg.gauge(
            "serve_model_swaps_total", "Hot-swaps performed by the registry."
        ).set(self.registry.swaps)
        return metrics_payload(reg)


def serve_in_thread(registry: ModelRegistry, **kwargs) -> ServerHandle:
    """Start a :class:`ModelServer` on a background thread; block until bound.

    ``kwargs`` go to :class:`ModelServer`. The returned handle is a
    context manager::

        with serve_in_thread(registry) as handle:
            client = ServeClient(*handle.address)
            ...
    """
    return ModelServer(registry, **kwargs).run_in_thread()

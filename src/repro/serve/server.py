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
from typing import Any, Dict, Optional, Tuple

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

__all__ = ["InferenceService", "ModelServer", "ServerHandle", "serve_in_thread"]


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


class ModelServer:
    """Asyncio TCP server exposing a registry-backed model.

    Parameters
    ----------
    registry:
        Shared :class:`ModelRegistry`. Publishing to it (from streaming
        refresh, another thread, or the ``reload`` RPC) hot-swaps what
        this server answers with, without dropping in-flight requests.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`bound_port` after :meth:`start`).
    policy:
        Micro-batching knobs (:class:`BatchPolicy`).
    cache_size:
        LRU label-cache entries (0 disables).
    allow_admin:
        Whether the ``reload`` and ``shutdown`` ops are served. They let
        any client that can reach the socket read an arbitrary filesystem
        path or stop the process, so the default (``None``) enables them
        only on loopback binds; pass ``True`` to enable them on an
        exposed ``host`` (put real auth in front first) or ``False`` to
        disable them everywhere.
    admission:
        :class:`AdmissionPolicy` gating ``predict`` requests (rate,
        in-flight bound, deadline defaults). The default admits
        everything. Only ``predict`` consults admission — ``healthz``,
        ``metrics``, ``stats``, ``model-info`` and the admin ops always
        bypass shedding, so an overloaded server stays observable and
        manageable.
    circuit_threshold, circuit_cooldown_s:
        Circuit-breaker knobs: trip open after this many *consecutive*
        model errors; half-open one probe after the cooldown.
    drain_s:
        Hard cutoff on the graceful drain in :meth:`stop`: after this
        long, remaining in-flight requests are abandoned and the batcher
        is stopped anyway.
    """

    _LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[BatchPolicy] = None,
        cache_size: int = 65536,
        allow_admin: Optional[bool] = None,
        admission: Optional[AdmissionPolicy] = None,
        circuit_threshold: int = 5,
        circuit_cooldown_s: float = 1.0,
        drain_s: float = 5.0,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.allow_admin = (
            host in self._LOOPBACK_HOSTS if allow_admin is None else allow_admin
        )
        self.policy = policy or BatchPolicy()
        self.stats = ServeStats()
        self.cache = LabelCache(cache_size)
        self.service = InferenceService(registry, cache=self.cache, stats=self.stats)
        self.batcher = MicroBatcher(
            self.service.predict_rows, self.policy, stats=self.stats,
            flush_info=lambda: self.service.last_flush_info,
        )
        self.admission = AdmissionController(admission, stats=self.stats)
        self.circuit = CircuitBreaker(
            circuit_threshold, circuit_cooldown_s, stats=self.stats
        )
        self.drain_s = float(drain_s)
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._busy = 0  # requests between dispatch start and response write
        self.bound_port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ServeError("server already started")
        self._shutdown = asyncio.Event()
        self.batcher.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
        except BaseException:
            # A failed bind must not leave the worker task pending on a
            # loop that is about to close.
            await self.batcher.stop()
            raise
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` RPC arrives or :meth:`stop` is called."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.stop()

    async def stop(self, drain_s: Optional[float] = None) -> None:
        """Graceful drain: stop admitting, finish in-flight work, close.

        New ``predict`` requests are shed with reason ``draining`` the
        moment this is called; requests already admitted keep flowing and
        get their terminal responses. After ``drain_s`` (hard cutoff) the
        remaining work is abandoned: the batcher's own stop still flushes
        whatever it queued, so futures never hang — their responses just
        race the connection close.
        """
        if self._server is None:
            return
        self.admission.start_draining()
        self._server.close()  # no new connections
        await self._server.wait_closed()
        cutoff = time.monotonic() + (self.drain_s if drain_s is None else drain_s)
        while (
            (self.admission.in_flight > 0 or self._busy > 0)
            and time.monotonic() < cutoff
        ):
            await asyncio.sleep(0.005)
        await self.batcher.stop()  # flushes anything still pending
        for writer in list(self._writers):
            writer.close()
        self._server = None
        if self._shutdown is not None:
            self._shutdown.set()

    # -- request handling ------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                # _busy covers dispatch through response write, so a drain
                # only proceeds once every accepted request has had its
                # terminal response flushed to the socket.
                self._busy += 1
                try:
                    response = await self._dispatch(line)
                    stop_after = response.pop("_shutdown", False)
                    writer.write(json.dumps(response).encode("utf-8") + b"\n")
                    await writer.drain()
                finally:
                    self._busy -= 1
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):  # client vanished
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

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
            if op in ("reload", "rollback", "shutdown") and not self.allow_admin:
                self.stats.record_error()
                return {
                    "ok": False,
                    "error": f"admin op {op!r} is disabled on this server "
                             "(non-loopback bind without allow_admin)",
                }
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
        registries = [reg, default_registry()]
        return {
            "prometheus": render_prometheus(registries),
            "metrics": render_json(registries),
        }


class ServerHandle:
    """A :class:`ModelServer` running on a daemon thread (test/bench helper)."""

    def __init__(self, server: ModelServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.bound_port is not None
        return self.server.host, self.server.bound_port

    def stop(self, timeout: float = 10.0) -> None:
        if self.thread.is_alive():
            try:
                asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            except RuntimeError:  # loop already closing on its own
                pass
            self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - watchdog only
            raise ServeError("server thread failed to stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    registry: ModelRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    policy: Optional[BatchPolicy] = None,
    cache_size: int = 65536,
    startup_timeout: float = 10.0,
    allow_admin: Optional[bool] = None,
    admission: Optional[AdmissionPolicy] = None,
    circuit_threshold: int = 5,
    circuit_cooldown_s: float = 1.0,
    drain_s: float = 5.0,
) -> ServerHandle:
    """Start a :class:`ModelServer` on a background thread; block until bound.

    The returned handle is a context manager::

        with serve_in_thread(registry) as handle:
            client = ServeClient(*handle.address)
            ...
    """
    server = ModelServer(registry, host=host, port=port, policy=policy,
                         cache_size=cache_size, allow_admin=allow_admin,
                         admission=admission,
                         circuit_threshold=circuit_threshold,
                         circuit_cooldown_s=circuit_cooldown_s,
                         drain_s=drain_s)
    started = threading.Event()
    failure: Dict[str, BaseException] = {}
    loop_holder: Dict[str, asyncio.AbstractEventLoop] = {}

    def _run() -> None:
        async def _main():
            loop_holder["loop"] = asyncio.get_running_loop()
            await server.start()
            started.set()  # only after a successful bind
            await server.serve_until_shutdown()

        try:
            # asyncio.run cancels whatever is still pending (connection
            # handlers, a stop() racing a shutdown RPC) before it closes
            # the loop, so no task outlives the thread.
            asyncio.run(_main())
        except BaseException as exc:  # surface bind errors to the caller
            failure["exc"] = exc
        finally:
            # Released only after any failure is recorded, so the waiting
            # caller can never observe "started" with a failed-but-silent
            # bind (it would hand back a handle whose bound_port is None).
            started.set()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(startup_timeout):
        raise ServeError("server failed to start within timeout")
    if "exc" in failure:
        thread.join(startup_timeout)
        raise ServeError(f"server failed to start: {failure['exc']}")
    return ServerHandle(server, thread, loop_holder["loop"])

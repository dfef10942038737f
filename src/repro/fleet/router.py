"""Capacity-aware fleet router: one wire endpoint over N model servers.

The :class:`FleetRouter` is an asyncio TCP front-end that speaks the
*exact* :mod:`repro.serve` newline-delimited JSON protocol, so every
existing client, load generator, and test drives a fleet the same way it
drives a single server; it runs on the server's line-protocol core
(:class:`~repro.serve.server.LineServer`), so bind, admin gate, drain on
stop and thread launcher are one code. Behind the socket it adds the
three things one ``ModelServer`` cannot do for itself:

* **capacity-aware load balancing** — power-of-two-choices over a score
  combining the router's own per-replica in-flight count (exact, free)
  with each replica's self-reported ``in_flight``/``queue_depth`` from
  periodic ``healthz`` probes (an EWMA'd capacity hint, raised by one
  for each request the replica refuses for capacity). Per the
  coordinator-model discipline of *Communication-Optimal Distributed
  Clustering*, the router centralizes only these cheap aggregate
  signals — never per-point model work, which stays on the replicas.
* **health probing, ejection, re-admission** — a background loop probes
  every replica on a tight deadline (:func:`repro.serve.client.async_probe`);
  consecutive failures eject a replica from rotation, later successes
  re-admit it. Transport failures during forwarding count too, so a
  crashed replica stops receiving traffic after the first error, not the
  next probe tick.
* **failover** — idempotent requests that die on a replica connection
  are retried on the next-best replica; the client sees one slightly
  slower response instead of an error.

Plus per-tenant token-bucket quotas (:mod:`repro.fleet.quotas`) ahead of
replica admission, and a staged-rollout engine for the ``reload`` op
(:mod:`repro.fleet.rollout`) instead of a single-server hot swap.

The router deliberately keeps **no model state** on the request path:
responses are relayed as raw bytes (one ``startswith`` sniff for the
success metric) and requests are forwarded as the raw line the client
sent. A predict line is JSON-parsed only when it may carry a tenant or a
trace context, or when it is the one-in-16 sample that feeds the
rollout canary's live-row reservoir (:meth:`FleetRouter.probe_rows`).
Every other predict costs one byte-prefix sniff.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConnectionLostError,
    ServeError,
    ShedError,
    ValidationError,
)
from repro.fleet.quotas import TenantQuotas
from repro.obs.registry import MetricsRegistry
from repro.obs.reqtrace import NOOP_SPAN, get_tracer, inject
from repro.serve.admission import RetryBudget
from repro.serve.client import PROBE_TIMEOUT_S, async_probe
from repro.serve.server import (
    LINE_LIMIT,
    LineServer,
    ServerHandle,
    json_line,
    metrics_payload,
)

__all__ = ["FleetRouter", "router_in_thread"]

#: Byte prefixes sniffed instead of parsing: the predict op every client
#: in this repo serializes first, and a success response.
_PREDICT_PREFIX = b'{"op": "predict"'
_OK_PREFIX = b'{"ok": true'
#: One predict line in this many is parsed for the canary's live-row
#: reservoir; longer lines than ``_SAMPLE_MAX_BYTES`` are batches and are
#: never parsed for it.
_SAMPLE_EVERY = 16
_SAMPLE_MAX_BYTES = 4096
#: Consecutive probe/transport failures that eject a replica from rotation,
#: and consecutive probe successes that re-admit it.
EJECT_AFTER = 2
READMIT_AFTER = 2
#: Router sockets per replica; excess requests wait for a free one.
POOL_SIZE = 16
CONNECT_TIMEOUT_S = 2.0
#: Longest the router waits for a replica's reply to one forwarded line.
FORWARD_TIMEOUT_S = 30.0
#: Transport-failure retries per predict, each on a distinct replica.
MAX_FAILOVERS = 2


class _Conn:
    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer


class _ConnPool:
    """Bounded lazy pool of pipelined connections to one replica.

    Each in-flight request owns a connection exclusively (the wire
    protocol answers in order, so interleaving two requests on one
    connection would cross their responses). ``limit`` bounds the
    router's sockets per replica; excess requests wait on the semaphore,
    which is itself a capacity signal upstream (outstanding grows).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._free: deque = deque()
        self._sem = asyncio.Semaphore(POOL_SIZE)
        self._closed = False

    async def acquire(self) -> _Conn:
        await self._sem.acquire()
        while self._free:
            conn = self._free.popleft()
            if conn.reader.at_eof() or conn.writer.is_closing():
                self._close_conn(conn)
                continue
            return conn
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port, limit=LINE_LIMIT),
                CONNECT_TIMEOUT_S,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self._sem.release()
            reason = "timeout" if isinstance(exc, asyncio.TimeoutError) else (
                "refused" if isinstance(exc, ConnectionRefusedError) else "reset"
            )
            raise ConnectionLostError(
                f"cannot connect to replica {self.host}:{self.port}: {exc}",
                reason=reason,
            ) from exc
        return _Conn(reader, writer)

    def release(self, conn: _Conn) -> None:
        if self._closed:
            self._close_conn(conn)
        else:
            self._free.append(conn)
        self._sem.release()

    def discard(self, conn: _Conn) -> None:
        self._close_conn(conn)
        self._sem.release()

    def close_all(self) -> None:
        self._closed = True
        while self._free:
            self._close_conn(self._free.popleft())

    @staticmethod
    def _close_conn(conn: _Conn) -> None:
        try:
            conn.writer.close()
        except OSError:  # pragma: no cover - already dead
            pass


class ReplicaState:
    """Routing-side view of one replica: endpoint, health, load."""

    def __init__(self, replica_id: str, host: str, port: int):
        self.id = replica_id
        self.host = host
        self.port = port
        self.pool = _ConnPool(host, port)
        self.healthy = True
        self.consecutive_failures = 0
        self.readmit_streak = 0
        self.outstanding = 0       # router-local in-flight (exact)
        self.load_hint = 0.0       # EWMA of replica-reported in_flight+queue,
                                   # +1 per capacity refusal routed since
        self.polled: Dict[str, Any] = {}
        self.ejections = 0
        self.readmissions = 0

    @property
    def score(self) -> float:
        """Lower is better. Exact local count plus the polled hint."""
        return self.outstanding + self.load_hint

    def reset_endpoint(self, host: str, port: int) -> None:
        self.pool.close_all()
        self.host = host
        self.port = port
        self.pool = _ConnPool(host, port)
        self.consecutive_failures = 0
        self.readmit_streak = 0
        self.load_hint = 0.0
        self.polled = {}

    def snapshot(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "outstanding": self.outstanding,
            "load_hint": round(self.load_hint, 2),
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "version": self.polled.get("version"),
            "fingerprint": self.polled.get("fingerprint"),
        }


class FleetRouter(LineServer):
    """Asyncio TCP router over a fixed set of model-server replicas.

    Parameters
    ----------
    replicas:
        ``[(replica_id, host, port), ...]`` — typically
        :meth:`ReplicaSupervisor.endpoints`. Membership is fixed for the
        router's lifetime (health ejection is temporary removal from
        rotation, not membership change); a restarted replica re-enters
        via :meth:`set_endpoint` under its old id.
    host, port, allow_admin:
        As for :class:`~repro.serve.server.LineServer`; ``reload`` runs a
        staged rollout.
    quotas:
        Per-tenant :class:`~repro.fleet.quotas.TenantQuotas` enforced
        before any replica is consulted.
    probe_interval_s:
        Seconds between health-probe rounds over every replica.
    journal:
        Optional :class:`~repro.fleet.journal.RolloutJournal`. When set,
        the rollout engine write-ahead journals every transition and the
        journal's recorded artifact becomes the fleet's source of truth
        for crash recovery (see :mod:`repro.fleet.journal`).

    Timeouts, ejection streaks, pool size and the :data:`MAX_FAILOVERS`
    retries per predict are the module constants; rollout stages are
    :mod:`repro.fleet.rollout`'s. Failover retries
    across *all* requests draw on one windowed
    :class:`~repro.serve.admission.RetryBudget`: during a partition the
    router sheds ('unavailable', retryable) instead of multiplying every
    failed request by ``MAX_FAILOVERS`` — retries must never become the
    majority of fleet traffic.
    """

    kind = "router"

    def __init__(
        self,
        replicas: Sequence[Tuple[str, str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: Optional[TenantQuotas] = None,
        allow_admin: Optional[bool] = None,
        probe_interval_s: float = 0.25,
        journal=None,
        seed: int = 0,
    ):
        if not replicas:
            raise ValidationError("router needs at least one replica")
        super().__init__(host, port, allow_admin)
        self._states: Dict[str, ReplicaState] = {}
        for replica_id, rhost, rport in replicas:
            if replica_id in self._states:
                raise ValidationError(f"duplicate replica id {replica_id!r}")
            self._states[replica_id] = ReplicaState(replica_id, rhost, int(rport))
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.probe_interval_s = float(probe_interval_s)
        self.max_failovers = MAX_FAILOVERS
        self.retry_budget = RetryBudget()
        self._rng = random.Random(seed)
        self.registry = MetricsRegistry()
        self._init_metrics()
        # Rollout engine (lazy import to avoid a module cycle).
        from repro.fleet.rollout import RolloutManager

        self.journal = journal
        self.rollout = RolloutManager(self, journal=journal)
        self._sample_rows: deque = deque(maxlen=64)
        self._sample_tick = 0
        self._health_task: Optional[asyncio.Task] = None
        self._admin_lock: Optional[asyncio.Lock] = None
        self.started_at = time.time()

    # -- metrics -------------------------------------------------------------

    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_routed = reg.counter(
            "fleet_routed_total",
            "Requests routed per replica, by outcome (ok / shed / "
            "deadline_exceeded / circuit_open / queue_full / error / "
            "failover).",
            ("replica", "outcome"),
        )
        self._m_unroutable = reg.counter(
            "fleet_unroutable_total",
            "Requests answered 'unavailable' because no healthy replica "
            "remained (after failover attempts).",
        )
        self._m_retry_exhausted = reg.counter(
            "fleet_retry_budget_exhausted_total",
            "Failover retries refused because the fleet-wide windowed "
            "retry budget was spent; the request was answered "
            "'unavailable' instead of amplifying the partition.",
        )
        self._m_tenant_shed = reg.counter(
            "fleet_tenant_shed_total",
            "Predicts shed by per-tenant quotas at the router, by tenant.",
            ("tenant",),
        )
        self._m_probe_fail = reg.counter(
            "fleet_probe_failures_total",
            "Health probes that failed, by replica.",
            ("replica",),
        )
        self._m_ejections = reg.counter(
            "fleet_ejections_total",
            "Times a replica was ejected from rotation.",
            ("replica",),
        )
        self._m_readmissions = reg.counter(
            "fleet_readmissions_total",
            "Times an ejected replica was re-admitted after healthy probes.",
            ("replica",),
        )
        self._m_healthy = reg.gauge(
            "fleet_replicas_healthy", "Replicas currently in rotation."
        )
        self._m_healthy.set(len(self._states))
        reg.gauge(
            "fleet_replicas_total", "Replicas configured on the router."
        ).set(len(self._states))
        self._m_forward = reg.histogram(
            "fleet_forward_seconds",
            "Router-side forward latency (send to replica until its "
            "response line is read).",
        )
        # Per-replica health gauges: enough signal on the dashboard to
        # answer "why was this replica ejected" without reading logs —
        # the probe outcome stream, the failure streak that crossed
        # EJECT_AFTER, and the EWMA load hint feeding the balancer.
        self._m_probe = reg.counter(
            "fleet_probe_total",
            "Health probes per replica, by outcome (ok / fail / draining).",
            ("replica", "outcome"),
        )
        self._m_replica_up = reg.gauge(
            "fleet_replica_up",
            "1 while the replica is in rotation, 0 while ejected.",
            ("replica",),
        )
        self._m_load_hint = reg.gauge(
            "fleet_replica_load_hint",
            "EWMA of the replica's self-reported in_flight + queue_depth, "
            "plus one per shed or queue_full answer (the capacity hint "
            "behind power-of-two-choices).",
            ("replica",),
        )
        self._m_consec_failures = reg.gauge(
            "fleet_replica_consecutive_failures",
            "Current probe/transport failure streak (ejection trips at "
            "eject_after).",
            ("replica",),
        )
        for rid in self._states:
            self._m_replica_up.labels(replica=rid).set(1)
            self._m_load_hint.labels(replica=rid).set(0)
            self._m_consec_failures.labels(replica=rid).set(0)

    # -- canary sample -------------------------------------------------------

    def _keep_sample(self, x: Any) -> None:
        """Add one single-point predict's row to the canary reservoir."""
        if not isinstance(x, list) or not x:
            return
        try:
            row = [float(v) for v in x]
        except (TypeError, ValueError):
            return  # a batch (its rows are lists) or garbage
        if all(math.isfinite(v) for v in row):
            self._sample_rows.append(row)

    def probe_rows(self, n: int, n_features: int) -> List[List[float]]:
        """Rows for canary baking: sampled live traffic, synthetic fallback.

        Live samples represent what production actually sends (including
        its dimensionality — the thing a mis-shaped new model breaks on);
        the zero-vector fallback at the *current* feature count preserves
        that property on an idle fleet.
        """
        rows = [r for r in self._sample_rows if len(r) == n_features]
        if not rows:
            rows = [[0.0] * n_features]
        return [rows[i % len(rows)] for i in range(n)]

    # -- lifecycle -----------------------------------------------------------

    async def on_start(self) -> None:
        self._admin_lock = asyncio.Lock()
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def on_stop(self) -> None:
        assert self._health_task is not None
        self._health_task.cancel()
        try:
            await self._health_task
        except asyncio.CancelledError:
            pass
        for state in self._states.values():
            state.pool.close_all()

    async def set_endpoint(self, replica_id: str, host: str, port: int) -> None:
        """Point an existing replica id at a new host:port (post-restart).

        Routing counters stay keyed by the same id; health state resets
        and the probe loop re-admits it as soon as it answers. Other
        threads run it through :meth:`ServerHandle.call`.
        """
        state = self._states.get(replica_id)
        if state is None:
            raise ValidationError(f"unknown replica {replica_id!r}")
        state.reset_endpoint(host, int(port))

    # -- health --------------------------------------------------------------

    def _healthy_states(self) -> List[ReplicaState]:
        return [
            self._states[rid] for rid in sorted(self._states)
            if self._states[rid].healthy
        ]

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            await asyncio.gather(
                *(self._probe_one(s) for s in list(self._states.values()))
            )

    async def _probe_one(self, state: ReplicaState) -> None:
        try:
            payload = await async_probe(state.host, state.port, PROBE_TIMEOUT_S)
            if payload.get("status") == "draining":
                raise ServeError("replica is draining")
        except (ConnectionLostError, ServeError, ValueError):
            self._m_probe_fail.labels(replica=state.id).inc()
            self._m_probe.labels(replica=state.id, outcome="fail").inc()
            self._note_failure(state)
            return
        load = float(payload.get("in_flight") or 0)
        load += float(payload.get("queue_depth") or 0)
        state.load_hint = 0.7 * state.load_hint + 0.3 * load
        state.polled = payload
        self._m_probe.labels(replica=state.id, outcome="ok").inc()
        self._m_load_hint.labels(replica=state.id).set(state.load_hint)
        self._note_probe_success(state)

    def _note_failure(self, state: ReplicaState) -> None:
        """One failed probe or transport attempt against ``state``."""
        state.readmit_streak = 0
        state.consecutive_failures += 1
        self._m_consec_failures.labels(replica=state.id).set(
            state.consecutive_failures
        )
        if state.healthy and state.consecutive_failures >= EJECT_AFTER:
            state.healthy = False
            state.ejections += 1
            self._m_ejections.labels(replica=state.id).inc()
            self._m_replica_up.labels(replica=state.id).set(0)
            self._m_healthy.set(len(self._healthy_states()))
            get_tracer().event("router/eject", attrs={
                "replica": state.id,
                "consecutive_failures": state.consecutive_failures,
            })

    def _note_probe_success(self, state: ReplicaState) -> None:
        state.consecutive_failures = 0
        self._m_consec_failures.labels(replica=state.id).set(0)
        if not state.healthy:
            state.readmit_streak += 1
            if state.readmit_streak >= READMIT_AFTER:
                state.healthy = True
                state.readmit_streak = 0
                state.readmissions += 1
                self._m_readmissions.labels(replica=state.id).inc()
                self._m_replica_up.labels(replica=state.id).set(1)
                self._m_healthy.set(len(self._healthy_states()))
                get_tracer().event("router/readmit", attrs={
                    "replica": state.id,
                    "readmissions": state.readmissions,
                })

    # -- request path --------------------------------------------------------

    def _inspect(self, line: bytes) -> Tuple[Optional[str], Optional[Dict]]:
        """Cheap op sniff; full JSON parse only when routing needs fields.

        Predict lines from every client in this repo serialize ``op``
        first, so the byte-prefix sniff catches the hot path. A parse is
        still needed when the request may carry a tenant, and for one
        small line in ``_SAMPLE_EVERY`` that feeds the canary reservoir;
        every other predict is relayed unparsed as ``("predict", None)``.
        """
        sample = False
        if line.startswith(_PREDICT_PREFIX):
            self._sample_tick += 1
            sample = (self._sample_tick % _SAMPLE_EVERY == 1
                      and len(line) <= _SAMPLE_MAX_BYTES)
            # Traced requests (rare; sampled at the client) always parse:
            # the router must re-inject its forward span's context per
            # attempt, so byte-transparent relay is reserved for the
            # untraced hot path.
            need_parse = (
                sample
                or (self.quotas.enabled and b'"tenant"' in line)
                or (get_tracer().enabled and b'"trace"' in line)
            )
            if not need_parse:
                return "predict", None
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            return None, None
        if not isinstance(request, dict):
            return None, None
        if sample:
            self._keep_sample(request.get("x"))
        op = request.get("op")
        return (op if isinstance(op, str) else None), request

    @staticmethod
    def _error_bytes(message: str, err: Optional[str] = None,
                     retryable: bool = False) -> bytes:
        payload: Dict[str, Any] = {"ok": False, "error": message}
        if err is not None:
            payload["err"] = err
        if retryable:
            payload["retryable"] = True
        return json_line(payload)

    async def answer(self, line: bytes) -> Tuple[bytes, bool]:
        op, request = self._inspect(line)
        if op is None:
            return self._error_bytes("malformed JSON request"), False
        if op == "predict":
            return await self._route_predict(line, request), False
        if op == "healthz":
            return self._op_healthz(), False
        if op == "stats":
            return await self._op_stats(), False
        if op == "metrics":
            return self._op_metrics(), False
        if op == "fleet-status":
            return self._op_fleet_status(), False
        refusal = self.admin_refusal(op)
        if refusal:
            return self._error_bytes(refusal), False
        if op == "reload":
            return await self._op_reload(request), False
        if op == "rollback":
            return await self._op_rollback(request), False
        if op == "shutdown":
            assert self._shutdown is not None
            self._shutdown.set()
            return b'{"ok": true, "stopping": true}\n', True
        # Anything else ("model-info", future server ops): transparent
        # pass-through to one healthy replica. Unknown mutability → no
        # failover retry; the replica's own error answer is relayed.
        return await self._forward_once(line), False

    async def _route_predict(self, line: bytes,
                             request: Optional[Dict[str, Any]]) -> bytes:
        if self.quotas.enabled:
            tenant = None if request is None else request.get("tenant")
            try:
                self.quotas.try_admit(tenant)
            except ShedError as exc:
                self._m_tenant_shed.labels(
                    tenant="anonymous" if tenant is None else str(tenant)
                ).inc()
                return self._error_bytes(str(exc), err="shed", retryable=True)
        tracer = get_tracer()
        route_span = (
            tracer.from_wire(request, "router/route")
            if request is not None else NOOP_SPAN
        )
        self.retry_budget.note_request()
        tried: List[str] = []
        with route_span:
            for attempt in range(self.max_failovers + 1):
                # The first attempt is free — the budget only prices
                # *retries*, so steady-state traffic is never gated. A
                # refused retry sheds the request as retryable
                # 'unavailable': during a partition the fleet answers a
                # bounded trickle of fast errors instead of multiplying
                # every failure by max_failovers.
                if attempt and not self.retry_budget.try_spend():
                    self._m_retry_exhausted.inc()
                    route_span.set_status("retry_budget_exhausted")
                    return self._error_bytes(
                        "failover retry budget exhausted",
                        err="unavailable", retryable=True,
                    )
                state = self._pick(tried)
                if state is None:
                    break
                # Each forward attempt is its own span so a failover shows
                # up as two router/forward children (the dead replica's
                # marked !failover). The replica's server/predict span
                # parents to the *attempt* that reached it, which means
                # the line must be re-serialized with this attempt's span
                # id — only for traced requests; untraced lines stay the
                # raw client bytes.
                fwd_span = tracer.child_of(
                    route_span, "router/forward", attrs={"replica": state.id}
                )
                send_line = line
                if fwd_span.context is not None:
                    payload = dict(request)
                    inject(payload, fwd_span)
                    send_line = json_line(payload)
                state.outstanding += 1
                t0 = time.perf_counter()
                try:
                    with fwd_span:
                        try:
                            response = await self._forward(state, send_line)
                        except ConnectionLostError:
                            fwd_span.set_status("failover")
                            raise
                except ConnectionLostError:
                    tried.append(state.id)
                    self._note_failure(state)
                    self._m_routed.labels(
                        replica=state.id, outcome="failover"
                    ).inc()
                    continue
                finally:
                    state.outstanding -= 1
                self._m_forward.observe(time.perf_counter() - t0)
                state.consecutive_failures = 0
                outcome = self._classify_response(response)
                self._m_routed.labels(replica=state.id, outcome=outcome).inc()
                if outcome in ("shed", "queue_full"):
                    # A refusal comes back faster than an answer, so the
                    # refusing replica's in-flight count stays low and
                    # the least-loaded pick would send it yet more
                    # traffic. Each refusal raises its load hint until
                    # the next probes decay it.
                    state.load_hint += 1.0
                route_span.set_attr("replica", state.id)
                if tried:
                    route_span.set_attr("failovers", len(tried))
                if outcome != "ok":
                    route_span.set_status(outcome)
                return response
            self._m_unroutable.inc()
            route_span.set_status("unavailable")
            return self._error_bytes(
                "no healthy replica available", err="unavailable",
                retryable=True,
            )

    @staticmethod
    def _classify_response(response: bytes) -> str:
        if response.startswith(_OK_PREFIX):
            return "ok"
        # Failure responses are rare and small — a real parse is fine and
        # gives exact shed/deadline/circuit accounting per replica.
        try:
            payload = json.loads(response)
        except json.JSONDecodeError:  # pragma: no cover - defensive
            return "error"
        err = payload.get("err")
        if err in ("shed", "deadline_exceeded", "circuit_open", "queue_full"):
            return err
        return "error"

    def _pick(self, tried: Sequence[str]) -> Optional[ReplicaState]:
        healthy = [s for s in self._healthy_states() if s.id not in tried]
        if not healthy:
            # Desperation pass: with everything ejected (or tried), an
            # ejected-but-maybe-back replica beats a guaranteed error.
            healthy = [
                s for s in self._states.values() if s.id not in tried
            ]
            if not healthy:
                return None
            return min(healthy, key=lambda s: s.score)
        if len(healthy) == 1:
            return healthy[0]
        a, b = self._rng.sample(healthy, 2)
        # Scores less than one request apart tie, and the random sample
        # order breaks the tie: an EWMA hint a few hundredths higher must
        # not starve a replica. A refusal adds a whole request to the
        # hint, so a refusing replica still loses the pair.
        return b if b.score <= a.score - 1.0 else a

    async def _forward(self, state: ReplicaState, line: bytes) -> bytes:
        """One request → one replica; returns the raw response line.

        Any transport-level failure (connect, send, read, timeout, EOF)
        raises :class:`ConnectionLostError` and poisons the connection —
        never the replica's *response*, which is relayed verbatim.
        """
        conn = await state.pool.acquire()
        try:
            conn.writer.write(line)
            await conn.writer.drain()
            response = await asyncio.wait_for(
                conn.reader.readline(), FORWARD_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError) as exc:
            state.pool.discard(conn)
            reason = "timeout" if isinstance(exc, asyncio.TimeoutError) else "reset"
            raise ConnectionLostError(
                f"replica {state.id} connection lost: {exc}", reason=reason
            ) from exc
        if not response or not response.endswith(b"\n"):
            state.pool.discard(conn)
            raise ConnectionLostError(
                f"replica {state.id} closed the connection",
                reason="closed" if not response else "reset",
            )
        state.pool.release(conn)
        return response

    async def _forward_once(self, line: bytes) -> bytes:
        state = self._pick(())
        if state is None:
            self._m_unroutable.inc()
            return self._error_bytes(
                "no healthy replica available", err="unavailable",
                retryable=True,
            )
        state.outstanding += 1
        try:
            return await self._forward(state, line)
        except ConnectionLostError as exc:
            self._note_failure(state)
            return self._error_bytes(str(exc), err="unavailable",
                                     retryable=True)
        finally:
            state.outstanding -= 1

    async def admin_request(self, state: ReplicaState,
                            payload: Dict[str, Any]) -> Dict[str, Any]:
        """Routed control-plane RPC to one specific replica (rollout path)."""
        line = json_line(payload)
        response = await self._forward(state, line)
        return json.loads(response)

    # -- local ops -----------------------------------------------------------

    def _op_healthz(self) -> bytes:
        healthy = self._healthy_states()
        status = "serving" if healthy else "unavailable"
        if healthy and len(healthy) < len(self._states):
            status = "degraded"
        payload = {
            "ok": True,
            "status": status,
            "role": "fleet-router",
            "healthy_replicas": len(healthy),
            "replicas": len(self._states),
            "rollout": self.rollout.state,
            "uptime_s": round(time.time() - self.started_at, 3),
            "fingerprints": {
                s.id: s.polled.get("fingerprint")
                for s in self._states.values() if s.polled
            },
        }
        return json_line(payload)

    async def _op_stats(self) -> bytes:
        per_replica: Dict[str, Any] = {}
        for state in self._healthy_states():
            try:
                per_replica[state.id] = await self.admin_request(
                    state, {"op": "stats"}
                )
            except (ConnectionLostError, json.JSONDecodeError):
                per_replica[state.id] = {"ok": False, "error": "unreachable"}
        payload = {"ok": True, "fleet": self.fleet_snapshot(),
                   "replicas": per_replica}
        return json_line(payload)

    def _op_metrics(self) -> bytes:
        return json_line({"ok": True, **metrics_payload(self.registry)})

    def _op_fleet_status(self) -> bytes:
        payload = {"ok": True, **self.fleet_snapshot(detail=True)}
        return json_line(payload)

    def fleet_snapshot(self, detail: bool = False) -> Dict[str, Any]:
        """JSON-friendly router state (the ``fleet-status`` payload)."""
        routed: Dict[str, Dict[str, int]] = {}
        for sample in self._m_routed.snapshot()["samples"]:
            if not sample["value"]:
                continue
            labels = sample["labels"]
            routed.setdefault(labels["replica"], {})[labels["outcome"]] = int(
                sample["value"]
            )
        snap: Dict[str, Any] = {
            "healthy_replicas": len(self._healthy_states()),
            "replicas": {
                rid: self._states[rid].snapshot()
                for rid in sorted(self._states)
            },
            "routed": routed,
            "unroutable": int(self._m_unroutable.value),
            "retry_budget": self.retry_budget.snapshot(),
            "rollout": self.rollout.state,
            "tenant_sheds": self.quotas.shed_counts(),
        }
        if detail:
            snap["rollout_history"] = self.rollout.history
        return snap

    async def _op_reload(self, request: Optional[Dict[str, Any]]) -> bytes:
        if request is None or not request.get("path"):
            return self._error_bytes("reload request needs a 'path' field")
        assert self._admin_lock is not None
        if self._admin_lock.locked():
            return self._error_bytes(
                "a rollout is already in progress", err="rollout_busy"
            )
        async with self._admin_lock:
            try:
                summary = await self.rollout.run(
                    str(request["path"]), tag=request.get("tag")
                )
            except ServeError as exc:
                return self._error_bytes(str(exc), err="rollout_failed")
        return json_line({"ok": True, **summary})

    async def _op_rollback(self, request: Optional[Dict[str, Any]]) -> bytes:
        version = None if request is None else request.get("version")
        results: Dict[str, Any] = {}
        max_version = 0
        fingerprint = None
        for state in self._healthy_states():
            payload: Dict[str, Any] = {"op": "rollback"}
            if version is not None:
                payload["version"] = version
            try:
                resp = await self.admin_request(state, payload)
            except ConnectionLostError as exc:
                results[state.id] = str(exc)
                continue
            results[state.id] = resp.get("version", resp.get("error"))
            if resp.get("ok"):
                max_version = max(max_version, int(resp["version"]))
                fingerprint = resp.get("fingerprint")
        if not max_version:
            return self._error_bytes(f"rollback failed on every replica: "
                                     f"{results}")
        payload = {"ok": True, "version": max_version,
                   "fingerprint": fingerprint, "replicas": results}
        return json_line(payload)



def router_in_thread(replicas: Sequence[Tuple[str, str, int]],
                     **kwargs) -> ServerHandle:
    """Start a :class:`FleetRouter` on a background thread; block until bound.

    ``kwargs`` go to :class:`FleetRouter`; see
    :meth:`~repro.serve.server.LineServer.run_in_thread`.
    """
    return FleetRouter(replicas, **kwargs).run_in_thread()

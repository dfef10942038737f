"""Closed- and open-loop load generation against a model server.

Two canonical traffic shapes from the serving literature:

* **closed loop** — ``n_clients`` virtual users, each waiting for its
  response before sending the next request. Throughput is
  concurrency-limited; this is what "N threads hammering the service"
  looks like and what gives micro-batching its coalescing opportunity.
* **open loop** — requests fired on a fixed schedule (``rate`` per
  second) regardless of completions, the right model for independent
  external arrivals; latency degrades visibly when the server saturates
  instead of the load silently self-throttling.

Both record per-request latency, failures, and the set of model versions
observed, so a hot-swap test can assert "zero failed requests and every
response labeled by exactly one version, old or new".

Failures are bucketed by *outcome* — ``shed``, ``deadline_exceeded``,
``circuit_open``, ``queue_full``, ``timeout``, ``error`` — because an
overload benchmark needs to assert that the server degraded the intended
way (explicit shedding) rather than the pathological way (client
timeouts). A report that lumped them together could not tell the two
apart.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ShedError,
)
from repro.serve.client import AsyncServeClient
from repro.serve.stats import quantiles
from repro.util.validation import check_array_2d

__all__ = ["LoadReport", "run_closed_loop", "run_open_loop"]

#: Outcome buckets, in render order. ``ok`` first; the rest are failures.
OUTCOMES = (
    "ok", "shed", "deadline_exceeded", "circuit_open", "queue_full",
    "timeout", "error",
)


def _classify(exc: BaseException) -> str:
    """Map one request failure to its outcome bucket."""
    if isinstance(exc, ShedError):
        return "shed"
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, CircuitOpenError):
        return "circuit_open"
    if isinstance(exc, QueueFullError):
        return "queue_full"
    if isinstance(exc, asyncio.TimeoutError):
        return "timeout"
    return "error"


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str
    requests_sent: int = field(default=0, init=False)
    requests_ok: int = field(default=0, init=False)
    requests_failed: int = field(default=0, init=False)
    duration_s: float = field(default=0.0, init=False)
    latencies_s: List[float] = field(default_factory=list, init=False)
    versions_seen: Set[int] = field(default_factory=set, init=False)
    errors: List[str] = field(default_factory=list, init=False)
    outcomes: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in OUTCOMES}, init=False
    )

    @property
    def throughput_rps(self) -> float:
        return self.requests_ok / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def shed_total(self) -> int:
        """Explicit server-side rejections (the *intended* overload path)."""
        return (
            self.outcomes["shed"]
            + self.outcomes["deadline_exceeded"]
            + self.outcomes["circuit_open"]
            + self.outcomes["queue_full"]
        )

    def latency_quantiles(self) -> Dict[str, float]:
        return quantiles(self.latencies_s)

    def render(self) -> str:
        q = self.latency_quantiles()
        shown = {k: v for k, v in self.outcomes.items() if v}
        lines = [
            f"loadgen ({self.mode} loop)",
            f"  requests: {self.requests_ok} ok / {self.requests_failed} failed "
            f"of {self.requests_sent} in {self.duration_s:.3f}s",
            f"  outcomes: "
            + "  ".join(f"{k}={shown[k]}" for k in OUTCOMES if k in shown),
            f"  throughput: {self.throughput_rps:,.0f} req/s",
            f"  latency: p50={q['p50'] * 1e3:.2f}ms  p90={q['p90'] * 1e3:.2f}ms  "
            f"p99={q['p99'] * 1e3:.2f}ms",
            f"  model versions seen: {sorted(self.versions_seen)}",
        ]
        if self.errors:
            lines.append(f"  first errors: {self.errors[:3]}")
        return "\n".join(lines)

    def _record_ok(self, latency_s: float, version: int) -> None:
        self.requests_ok += 1
        self.outcomes["ok"] += 1
        self.latencies_s.append(latency_s)
        self.versions_seen.add(version)

    def _record_failure(self, exc: BaseException) -> None:
        self.requests_failed += 1
        self.outcomes[_classify(exc)] += 1
        self.errors.append(str(exc) or type(exc).__name__)


def _request_pool(points: np.ndarray) -> np.ndarray:
    points = check_array_2d(points, "points")
    if points.shape[0] == 0:
        raise ServeError("loadgen needs at least one point to send")
    return np.asarray(points, dtype=np.float64)


async def _send_one(
    client: AsyncServeClient,
    row: np.ndarray,
    report: LoadReport,
    deadline_ms: Optional[float],
    request_timeout_s: Optional[float],
) -> None:
    """One request → exactly one report entry (ok or bucketed failure)."""
    report.requests_sent += 1
    t0 = time.perf_counter()
    try:
        coro = client.predict(row, deadline_ms=deadline_ms)
        if request_timeout_s is not None:
            result = await asyncio.wait_for(coro, request_timeout_s)
        else:
            result = await coro
    except asyncio.TimeoutError as exc:
        report._record_failure(exc)
        # The response may still arrive later and desync this pipelined
        # connection; drop it and reconnect before the next request.
        await client.close()
        try:
            await client.connect()
        except ServeError:
            pass  # next send will fail and be bucketed as "error"
    except (ConnectionLostError, OSError) as exc:
        # Transport died under us (e.g. the server hard-closed during a
        # drain cutoff, or a replica was killed). The client surfaces it
        # typed; either way: exactly one terminal outcome per request,
        # then reconnect so the next request gets a fresh verdict.
        report._record_failure(exc)
        await client.close()
        try:
            await client.connect()
        except ServeError:
            pass
    except ServeError as exc:
        report._record_failure(exc)
    else:
        report._record_ok(time.perf_counter() - t0, result.version)


async def _closed_loop_async(
    host: str,
    port: int,
    points: np.ndarray,
    n_requests: int,
    n_clients: int,
    deadline_ms: Optional[float],
    request_timeout_s: Optional[float],
) -> LoadReport:
    report = LoadReport(mode="closed")
    pool = _request_pool(points)
    counter = {"next": 0}

    async def worker(client_idx: int) -> None:
        client = AsyncServeClient(host, port)
        await client.connect()
        try:
            while True:
                i = counter["next"]
                if i >= n_requests:
                    return
                counter["next"] = i + 1
                row = pool[i % pool.shape[0]]
                await _send_one(client, row, report, deadline_ms,
                                request_timeout_s)
        finally:
            await client.close()

    t_start = time.perf_counter()
    await asyncio.gather(*(worker(c) for c in range(max(1, n_clients))))
    report.duration_s = time.perf_counter() - t_start
    return report


async def _open_loop_async(
    host: str,
    port: int,
    points: np.ndarray,
    rate: float,
    duration_s: float,
    n_connections: int,
    deadline_ms: Optional[float],
    request_timeout_s: Optional[float],
) -> LoadReport:
    report = LoadReport(mode="open")
    pool = _request_pool(points)
    if rate <= 0:
        raise ServeError("open-loop rate must be > 0 requests/s")
    clients = [AsyncServeClient(host, port) for _ in range(max(1, n_connections))]
    for client in clients:
        await client.connect()
    in_flight: List[asyncio.Task] = []

    interval = 1.0 / rate
    t_start = time.perf_counter()
    i = 0
    try:
        while True:
            now = time.perf_counter()
            if now - t_start >= duration_s:
                break
            # Arrival schedule is fixed a priori — the defining open-loop
            # property: we do NOT wait for completions before the next send.
            target = t_start + i * interval
            delay = target - now
            if delay > 0:
                await asyncio.sleep(delay)
            row = pool[i % pool.shape[0]]
            client = clients[i % len(clients)]
            in_flight.append(asyncio.ensure_future(
                _send_one(client, row, report, deadline_ms, request_timeout_s)
            ))
            i += 1
        if in_flight:
            await asyncio.gather(*in_flight)
    finally:
        for client in clients:
            await client.close()
    report.duration_s = time.perf_counter() - t_start
    return report


def run_closed_loop(
    host: str,
    port: int,
    points: np.ndarray,
    n_requests: int = 1000,
    n_clients: int = 16,
    deadline_ms: Optional[float] = None,
    request_timeout_s: Optional[float] = None,
) -> LoadReport:
    """Closed-loop run: ``n_clients`` users, one outstanding request each.

    ``deadline_ms`` attaches a latency budget to every request (the server
    sheds expired work explicitly); ``request_timeout_s`` is the client's
    own patience, after which the request counts as ``timeout`` — a
    healthy overload run has many ``shed`` and zero ``timeout`` outcomes.
    """
    return asyncio.run(
        _closed_loop_async(host, port, points, n_requests, n_clients,
                           deadline_ms, request_timeout_s)
    )


def run_open_loop(
    host: str,
    port: int,
    points: np.ndarray,
    rate: float = 2000.0,
    duration_s: float = 1.0,
    n_connections: int = 16,
    deadline_ms: Optional[float] = None,
    request_timeout_s: Optional[float] = None,
) -> LoadReport:
    """Open-loop run: fire ``rate`` req/s for ``duration_s`` seconds."""
    return asyncio.run(
        _open_loop_async(host, port, points, rate, duration_s, n_connections,
                         deadline_ms, request_timeout_s)
    )

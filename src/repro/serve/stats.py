"""Serving-side operational metrics, backed by the obs metrics registry.

One :class:`ServeStats` instance is shared by the micro-batcher and the
server front-end. Recording is cheap registry-counter increments on the
hot path; aggregation (throughput, histograms, quantiles) happens at
:meth:`ServeStats.snapshot` time, which is what the ``stats`` RPC
returns.

Since the telemetry PR, every series lives in a
:class:`~repro.obs.registry.MetricsRegistry` (private to the instance by
default, so two servers in one process never cross-count), which is what
the ``{"op": "metrics"}`` RPC renders as Prometheus text. The legacy
attribute surface (``stats.requests_total``, ``stats.versions_served``,
``snapshot()``) is preserved on top as properties.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["ServeStats", "quantiles"]

#: Power-of-two batch-size buckets: floor bucket ``b`` counts flushes of
#: size in [b, 2b); 8192 comfortably covers any sane ``max_batch``.
_BATCH_BUCKET_FLOORS = tuple(1 << i for i in range(14))


def _bucket(n: int) -> int:
    """Power-of-two bucket floor for the batch-size histogram.

    Defensive on ``n <= 0`` (empty flushes cannot happen, but a stats
    layer must never loop or throw on garbage): everything below 1 lands
    in the smallest bucket.
    """
    n = int(n)
    if n <= 1:
        return 1
    b = 1
    while b * 2 <= n:
        b *= 2
    return b


def bucket_upper_bound(floor: int) -> int:
    """Inclusive upper bound of the floor bucket (``[b, 2b)`` → ``2b − 1``)."""
    return 2 * int(floor) - 1


class ServeStats:
    """Counters + batch-size histogram for one serving process.

    Parameters
    ----------
    registry:
        Backing :class:`MetricsRegistry`. Default: a fresh private one,
        so each server instance reports only its own traffic. Pass a
        shared registry to aggregate several pipelines into one scrape
        (series then sum across instances).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._requests = reg.counter(
            "serve_requests_total", "Predict requests accepted by the front-end."
        )
        self._points = reg.counter(
            "serve_points_total", "Points contained in accepted predict requests."
        )
        self._errors = reg.counter(
            "serve_errors_total", "Requests rejected or failed with an error."
        )
        self._rejected = reg.counter(
            "serve_rejected_total", "Backpressure rejections (queue full)."
        )
        self._batches = reg.counter(
            "serve_batches_total", "Vectorized model calls (flushes)."
        )
        self._batched_points = reg.counter(
            "serve_batched_points_total", "Points labeled across all flushes."
        )
        self._service_seconds = reg.counter(
            "serve_service_seconds_total", "Seconds spent inside model predict calls."
        )
        self._batch_bucket = reg.counter(
            "serve_batch_size_batches_total",
            "Flushes per power-of-two batch-size bucket (label = bucket floor).",
            ("bucket",),
        )
        self._max_batch = reg.gauge(
            "serve_max_batch_size", "Largest flush observed (high-water mark)."
        )
        self._by_version = reg.counter(
            "serve_points_by_version_total",
            "Points labeled per model version (correlates across hot-swaps).",
            ("version",),
        )
        self._shed = reg.counter(
            "serve_shed_total",
            "Predict requests shed by admission control, by reason "
            "(rate / in_flight / draining).",
            ("reason",),
        )
        self._deadline_expired = reg.counter(
            "serve_deadline_expired_total",
            "Predict requests whose deadline expired before labeling, by "
            "where the expiry was detected (arrival / queue).",
            ("where",),
        )
        self._queue_wait = reg.histogram(
            "serve_queue_wait_seconds",
            "Time a row spent in the micro-batch queue between submit and "
            "flush (or deadline shed).",
        )
        self._request_latency = reg.histogram(
            "serve_request_seconds",
            "End-to-end server-side latency of successful predict requests "
            "(admission through labels ready). The fleet collector derives "
            "per-replica p99 from this family's bucket deltas.",
        )
        self._circuit_trips = reg.counter(
            "serve_circuit_open_total",
            "Times the server-side circuit breaker tripped open.",
        )
        reg.gauge(
            "serve_circuit_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open).",
        )
        reg.gauge(
            "serve_in_flight",
            "Admitted predict requests currently being served.",
        )
        reg.gauge("serve_uptime_seconds", "Seconds since this stats instance started.")

    # -- hot-path recording --------------------------------------------------

    def record_request(self, n_points: int) -> None:
        self._requests.inc()
        self._points.inc(int(n_points))

    def record_error(self) -> None:
        self._errors.inc()

    def record_rejected(self) -> None:
        self._rejected.inc()

    def record_batch(self, size: int, service_s: float, version: int) -> None:
        size = int(size)
        self._batches.inc()
        self._batched_points.inc(size)
        self._service_seconds.inc(float(service_s))
        self._batch_bucket.labels(bucket=_bucket(size)).inc()
        self._max_batch.set_max(size)
        self._by_version.labels(version=version).inc(size)

    def record_shed(self, reason: str) -> None:
        self._shed.labels(reason=reason).inc()

    def record_deadline_expired(self, where: str) -> None:
        self._deadline_expired.labels(where=where).inc()

    def record_queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(float(seconds))

    def record_request_latency(self, seconds: float) -> None:
        self._request_latency.observe(float(seconds))

    def record_circuit_trip(self) -> None:
        self._circuit_trips.inc()

    def set_circuit_state(self, code: int) -> None:
        self.registry.gauge("serve_circuit_state").set(code)

    def set_in_flight(self, n: int) -> None:
        self.registry.gauge("serve_in_flight").set(n)

    # -- legacy attribute surface ---------------------------------------------

    @property
    def requests_total(self) -> int:
        return int(self._requests.value)

    @property
    def points_total(self) -> int:
        return int(self._points.value)

    @property
    def errors_total(self) -> int:
        return int(self._errors.value)

    @property
    def rejected_total(self) -> int:
        return int(self._rejected.value)

    @property
    def shed_total(self) -> int:
        samples = self._shed.snapshot()["samples"]
        return int(sum(s["value"] for s in samples))

    @property
    def shed_by_reason(self) -> Dict[str, int]:
        samples = self._shed.snapshot()["samples"]
        return {
            s["labels"]["reason"]: int(s["value"])
            for s in samples if s["value"]
        }

    @property
    def deadline_expired_total(self) -> int:
        samples = self._deadline_expired.snapshot()["samples"]
        return int(sum(s["value"] for s in samples))

    @property
    def batches_total(self) -> int:
        return int(self._batches.value)

    @property
    def batched_points_total(self) -> int:
        return int(self._batched_points.value)

    @property
    def service_time_s(self) -> float:
        return float(self._service_seconds.value)

    @property
    def max_batch_seen(self) -> int:
        return int(self._max_batch.value)

    @property
    def batch_size_hist(self) -> Dict[int, int]:
        """Flush counts by power-of-two bucket floor (legacy shape)."""
        samples = self._batch_bucket.snapshot()["samples"]
        return {
            int(s["labels"]["bucket"]): int(s["value"])
            for s in samples if s["value"]
        }

    @property
    def versions_served(self) -> Dict[int, int]:
        """Model version → points labeled by it."""
        samples = self._by_version.snapshot()["samples"]
        return {
            int(s["labels"]["version"]): int(s["value"])
            for s in samples if s["value"]
        }

    # -- reporting -------------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def mean_batch_size(self) -> float:
        batches = self.batches_total
        return self.batched_points_total / batches if batches else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly summary (the ``stats`` RPC payload)."""
        uptime = self.uptime_s
        self.registry.gauge("serve_uptime_seconds").set(uptime)
        hist = self.batch_size_hist
        wait = self._queue_wait.snapshot()["samples"][0]
        wait_count = int(wait["count"])
        return {
            "uptime_s": round(uptime, 3),
            "requests_total": self.requests_total,
            "points_total": self.points_total,
            "errors_total": self.errors_total,
            "rejected_total": self.rejected_total,
            "shed_total": self.shed_total,
            "shed_by_reason": self.shed_by_reason,
            "deadline_expired_total": self.deadline_expired_total,
            "queue_wait": {
                "count": wait_count,
                "mean_ms": round(wait["sum"] / wait_count * 1e3, 3)
                if wait_count else 0.0,
            },
            "circuit_trips_total": int(self._circuit_trips.value),
            "throughput_rps": round(self.requests_total / uptime, 1)
            if uptime > 0 else 0.0,
            "batches_total": self.batches_total,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_batch_seen": self.max_batch_seen,
            "batch_size_hist": {str(k): v for k, v in sorted(hist.items())},
            # Inclusive upper bound per occupied bucket, so exposition
            # layers can render real histogram edges ([b, 2b) → 2b − 1).
            "batch_size_bucket_bounds": {
                str(k): bucket_upper_bound(k) for k in sorted(hist)
            },
            "service_time_s": round(self.service_time_s, 4),
            "versions_served": {
                str(k): v for k, v in sorted(self.versions_served.items())
            },
        }


def quantiles(samples: List[float]) -> Dict[str, float]:
    """Empirical p50/p90/p99 of a latency sample list (seconds)."""
    qs = (0.5, 0.9, 0.99)
    if not samples:
        return {f"p{int(q * 100)}": 0.0 for q in qs}
    ordered = sorted(samples)
    out = {}
    for q in qs:
        idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
        out[f"p{int(q * 100)}"] = ordered[idx]
    return out

"""Fleet-wide metrics collector: pull, fold, alert, re-expose.

The serving tier exposes per-process metrics (each replica's
``{"op": "metrics"}`` RPC; each SPMD rank's
:class:`~repro.obs.logger.SnapshotLogger` JSONL file). This module adds
the one piece a fleet needs on top — a single place where those
snapshots meet:

* :class:`MetricsCollector` periodically pulls every configured target
  (replicas and routers over the wire, rank snapshot files from disk),
  folding each scrape into labeled time-series ring buffers
  (:class:`~repro.obs.slo.SeriesStore`) keyed by instance;
* every cycle it evaluates the configured
  :class:`~repro.obs.slo.SLORule` burn-rate alerts per instance;
* it serves one **merged** endpoint speaking the same newline-JSON
  protocol as everything else in this repo (``metrics`` → Prometheus
  text + JSON with an ``instance`` label on every sample, ``alerts``,
  ``healthz``), which is what the live dashboard and CI scrape.

Per the coordinator-model discipline the fleet router already follows,
the collector centralizes only *aggregates* — counters, gauges,
histogram buckets — never request payloads or per-point model state; its
per-cycle cost is O(instances × series), independent of traffic volume.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.exposition import render_families
from repro.obs.slo import Alert, SeriesStore, SLOEvaluator, default_rules

__all__ = ["CollectorHandle", "MetricsCollector", "collector_in_thread"]

#: Families the collector itself is the source of (they carry scrape
#: health; everything else is relayed from the targets).
_UP_HELP = "1 if the last pull of this instance succeeded, else 0."
#: Per-target socket budget; a wedged replica costs one timeout, never the
#: whole cycle.
PULL_TIMEOUT_S = 2.0


class MetricsCollector:
    """Pull-based fleet metrics aggregation + SLO evaluation.

    Parameters
    ----------
    targets:
        ``[(instance_id, host, port), ...]`` — replicas and/or routers
        whose ``{"op": "metrics"}`` RPC to pull. Typically built from
        :meth:`ReplicaSupervisor.endpoints`.
    snapshot_files:
        ``[(instance_id, path), ...]`` JSONL files written by
        :class:`~repro.obs.logger.SnapshotLogger` (SPMD ranks, in-situ
        runs). The newest line of each file is folded in per cycle, so
        ranks participate in the same store without opening a port.
    interval_s:
        Pull cadence. The loop sleeps to tick *boundaries* (same
        discipline as the snapshot logger), so a slow scrape cannot
        drift the cadence.

    Each cycle evaluates :func:`~repro.obs.slo.default_rules`; a pull
    waits at most :data:`PULL_TIMEOUT_S` per target.
    """

    def __init__(
        self,
        targets: Sequence[Tuple[str, str, int]] = (),
        snapshot_files: Sequence[Tuple[str, str]] = (),
        interval_s: float = 2.0,
    ):
        if interval_s <= 0:
            raise ValidationError("interval_s must be > 0")
        if not targets and not snapshot_files:
            raise ValidationError("collector needs at least one target")
        self.targets = [(str(i), str(h), int(p)) for i, h, p in targets]
        ids = [i for i, _, _ in self.targets]
        self.snapshot_files = [(str(i), str(p)) for i, p in snapshot_files]
        ids += [i for i, _ in self.snapshot_files]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate collector instance ids")
        self.interval_s = float(interval_s)
        self.timeout_s = PULL_TIMEOUT_S
        self.store = SeriesStore()
        self.evaluator = SLOEvaluator(default_rules())
        self.up: Dict[str, bool] = {}
        self.last_families: Dict[str, Dict[str, Any]] = {}
        self.last_pull_ts: Dict[str, float] = {}
        self.alerts: List[Alert] = []
        self.cycles = 0
        self.scrape_failures = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- pulling ---------------------------------------------------------------

    def _pull_wire(self, host: str, port: int) -> Dict[str, Any]:
        with socket.create_connection((host, port),
                                      timeout=self.timeout_s) as sock:
            sock.settimeout(self.timeout_s)
            fh = sock.makefile("rwb")
            fh.write(b'{"op": "metrics"}\n')
            fh.flush()
            line = fh.readline()
        if not line or not line.endswith(b"\n"):
            raise OSError("metrics response truncated")
        response = json.loads(line)
        if not response.get("ok"):
            raise OSError(f"metrics RPC failed: {response.get('error')}")
        return response["metrics"]["families"]

    @staticmethod
    def _pull_snapshot(path: str) -> Dict[str, Any]:
        """Newest families line of a SnapshotLogger JSONL file.

        Reads a bounded tail of the file (snapshots are append-only and
        self-contained), so cost does not grow with run length.
        """
        with open(path, "rb") as fh:
            try:
                fh.seek(-65536, os.SEEK_END)
            except OSError:
                fh.seek(0)
            tail = fh.read().splitlines()
        for raw in reversed(tail):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                continue  # torn final line mid-write
            if isinstance(record, dict) and "families" in record:
                return record["families"]
        raise OSError(f"no snapshot line in {path}")

    def poll_once(self, now: Optional[float] = None) -> List[Alert]:
        """One full cycle: pull every target, fold, evaluate alerts."""
        now = time.time() if now is None else float(now)
        for instance, host, port in self.targets:
            try:
                families = self._pull_wire(host, port)
            except (OSError, ValueError, KeyError):
                self._mark(instance, False, now)
                continue
            self._fold(instance, families, now)
        for instance, path in self.snapshot_files:
            try:
                families = self._pull_snapshot(path)
            except (OSError, ValueError):
                self._mark(instance, False, now)
                continue
            self._fold(instance, families, now)
        alerts = self.evaluator.evaluate(self.store, now)
        with self._lock:
            self.alerts = alerts
            self.cycles += 1
        return alerts

    def _fold(self, instance: str, families: Dict[str, Any],
              now: float) -> None:
        self.store.ingest_families(instance, families, now)
        with self._lock:
            self.last_families[instance] = families
            self.last_pull_ts[instance] = now
            self.up[instance] = True

    def _mark(self, instance: str, ok: bool, now: float) -> None:
        with self._lock:
            self.up[instance] = ok
            if not ok:
                self.scrape_failures += 1
        self.store.record(instance, "collector_up", None, 1.0 if ok else 0.0,
                          now)

    # -- background loop -------------------------------------------------------

    def start(self) -> "MetricsCollector":
        if self._thread is not None:
            raise ValidationError("collector already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-collector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "MetricsCollector":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        # Tick-boundary scheduling, same as SnapshotLogger._run: a slow
        # pull skips ticks instead of stretching the cadence.
        self.poll_once()
        t0 = time.monotonic()
        tick = 0
        while True:
            now = time.monotonic()
            tick = max(tick + 1, int((now - t0) / self.interval_s) + 1)
            next_tick = t0 + tick * self.interval_s
            if self._stop.wait(max(0.0, next_tick - now)):
                return
            self.poll_once()

    # -- merged exposition -----------------------------------------------------

    def merged_families(self) -> List[Dict[str, Any]]:
        """All instances' families, with ``instance`` stamped on samples.

        The merge is by family name across instances (one HELP/TYPE
        block, samples concatenated), which is what one Prometheus
        scrape of the collector expects to see.
        """
        with self._lock:
            snapshot = {
                inst: fams for inst, fams in self.last_families.items()
            }
            up = dict(self.up)
        merged: Dict[str, Dict[str, Any]] = {}
        for inst in sorted(snapshot):
            for name, fam in sorted(snapshot[inst].items()):
                out = merged.setdefault(name, {
                    "name": name, "type": fam.get("type", "gauge"),
                    "help": fam.get("help", ""), "samples": [],
                })
                for sample in fam.get("samples", ()):
                    stamped = dict(sample)
                    stamped["labels"] = {
                        **(sample.get("labels") or {}), "instance": inst,
                    }
                    out["samples"].append(stamped)
        up_family = {
            "name": "collector_instance_up", "type": "gauge",
            "help": _UP_HELP,
            "samples": [
                {"labels": {"instance": inst}, "value": 1.0 if ok else 0.0}
                for inst, ok in sorted(up.items())
            ],
        }
        return [up_family] + list(merged.values())

    def render_prometheus(self) -> str:
        return render_families(self.merged_families())

    def alerts_payload(self) -> Dict[str, Any]:
        with self._lock:
            alerts = list(self.alerts)
        return {
            "ok": True,
            "firing": len(alerts),
            "alerts": [
                {
                    "rule": a.rule, "kind": a.kind, "instance": a.instance,
                    "severity": a.severity, "burn": round(a.burn, 3),
                    "burn_short": round(a.burn_short, 3),
                    "window_s": a.window_s, "value": a.value, "at": a.at,
                    "summary": a.describe(),
                }
                for a in alerts
            ],
        }

    # -- per-instance rollups (the dashboard's data source) --------------------

    def instance_summary(self, instance: str,
                         window_s: float = 10.0,
                         now: Optional[float] = None) -> Dict[str, Any]:
        """Live operating point of one instance, derived from the store."""
        store = self.store
        now = time.time() if now is None else float(now)
        requests = store.delta(instance, "serve_requests_total", None,
                               window_s, now)
        sheds = store.sum_delta(instance, "serve_shed_total", window_s, now)
        p99 = store.quantile(instance, "serve_request_seconds", 0.99,
                             window_s, now)
        circuit = store.latest(instance, "serve_circuit_state")
        with self._lock:
            up = self.up.get(instance, False)
        return {
            "instance": instance,
            "up": up,
            "qps": requests / window_s,
            "shed_per_s": sheds / window_s,
            "shed_rate": sheds / (requests + sheds)
            if (requests + sheds) > 0 else 0.0,
            "queue_depth": store.latest(instance, "serve_queue_depth"),
            "in_flight": store.latest(instance, "serve_in_flight"),
            "p99_ms": None if p99 is None else p99 * 1e3,
            "cache_hit_rate": store.latest(instance, "serve_cache_hit_rate"),
            "circuit": {0: "closed", 1: "half-open", 2: "open"}.get(
                None if circuit is None else int(circuit)
            ),
        }

    def summaries(self, window_s: float = 10.0,
                  now: Optional[float] = None) -> List[Dict[str, Any]]:
        seen = set()
        out = []
        for instance, _, _ in self.targets:
            seen.add(instance)
            out.append(self.instance_summary(instance, window_s, now))
        for instance, _ in self.snapshot_files:
            if instance not in seen:
                out.append(self.instance_summary(instance, window_s, now))
        return out


class _CollectorRPC(socketserver.StreamRequestHandler):
    """Newline-JSON endpoint: metrics / alerts / healthz over one socket."""

    def handle(self) -> None:
        collector: MetricsCollector = self.server.collector  # type: ignore
        while True:
            line = self.rfile.readline()
            if not line or not line.endswith(b"\n"):
                return
            try:
                request = json.loads(line)
                op = request.get("op") if isinstance(request, dict) else None
            except json.JSONDecodeError:
                op = None
            if op == "metrics":
                payload: Dict[str, Any] = {
                    "ok": True,
                    "prometheus": collector.render_prometheus(),
                    "metrics": {
                        "families": {
                            fam["name"]: {
                                "type": fam["type"], "help": fam["help"],
                                "samples": fam["samples"],
                            }
                            for fam in collector.merged_families()
                        }
                    },
                }
            elif op == "alerts":
                payload = collector.alerts_payload()
            elif op == "healthz":
                with collector._lock:
                    up = dict(collector.up)
                payload = {
                    "ok": True, "role": "metrics-collector",
                    "cycles": collector.cycles,
                    "instances": {i: bool(v) for i, v in sorted(up.items())},
                }
            else:
                payload = {"ok": False,
                           "error": f"unknown collector op {op!r}"}
            self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")
            self.wfile.flush()


class CollectorHandle:
    """A running collector + its RPC endpoint (context manager)."""

    def __init__(self, collector: MetricsCollector,
                 server: socketserver.ThreadingTCPServer,
                 thread: threading.Thread):
        self.collector = collector
        self._server = server
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def stop(self, timeout: float = 10.0) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout)
        self.collector.stop(timeout)

    def __enter__(self) -> "CollectorHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def collector_in_thread(collector: MetricsCollector, host: str = "127.0.0.1",
                        port: int = 0) -> CollectorHandle:
    """Start the pull loop and the merged RPC endpoint on daemon threads."""

    class _Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    server = _Server((host, port), _CollectorRPC)
    server.collector = collector  # type: ignore[attr-defined]
    collector.start()
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-obs-collector-rpc", daemon=True)
    thread.start()
    return CollectorHandle(collector, server, thread)

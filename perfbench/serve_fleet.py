"""serve-fleet: reads through the router and one replica.

``python -m repro fleet --replicas 1`` runs the router and one replica,
each in its own process, serving a model fitted at set-up. This process
generates all load, over two connections:

* open loop at a fixed 200 requests/s (about a third of capacity on a
  2-vCPU host): single-point predicts, every 20th request a 64-row batch.
  Each request is timed from the moment it was due, not from when it was
  sent, so a stall also counts against the requests queued behind it; how
  late the generator itself ran is reported separately;
* then a closed loop of single-point predicts; the median completion rate
  over blocks of 64 consecutive replies is the serving capacity.

Every served label must equal in-process ``KeyBin2Model.predict`` of the
same row under the same model version and fingerprint.

A traced run adds, after the two loops: requests sent alternately to the
router and straight to the replica, an in-process replay of the request
rows through ``KeyBin2Model.predict``, ``InferenceService.predict_rows`` and
the JSON wire encoding, and the replica's ``stats`` op.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager

import numpy as np

from harness import OUT_DIR, Mixture, Outcome, Tracer, child_pids
from harness import interleaved_overhead
from harness import StealMeter, median_setup, now, p50, tail, unattributed_frac
from harness import SpeedGauge, vm_hwm_mb

from repro.core.estimator import KeyBin2
from repro.core.model import KeyBin2Model
from repro.metrics.external import adjusted_rand_index
from repro.serve.registry import ModelRegistry
from repro.serve.server import InferenceService

N_DIMS = 16
N_CLUSTERS = 8
TRAIN_ROWS = 20_000
POOL_ROWS = 4096
BATCH_ROWS = 64
BATCH_EVERY = 20
CONNECTIONS = 2
OPEN_RATE = 200.0
#: share of the measured window given to the open loop; the rest is closed
OPEN_SHARE = 0.6
CAPACITY_BLOCK = 64
#: closed-loop load before timing starts: caches fill, code paths warm and
#: the host schedules the fleet's processes as busy
WARMUP_S = 2.0
REPLAY_REQUESTS = 400
#: the highest percentile that repeated within a tenth between runs on a
#: shared 2-vCPU host: p90 ranged 2.7-4.1 ms and p99 4.6-59 ms across runs
TAIL_PCT = 75.0
#: how late the generator sent: a high percentile, since it flags stalls
LAG_TAIL_PCT = 99.0
ARI_FLOOR = 0.50
SETUP_REPEATS = 3
#: the model's configuration is fixed; only the input rows vary by seed
ESTIMATOR_SEED = 0
BOOT_TIMEOUT_S = 60.0
SOCKET_TIMEOUT_S = 30.0
STEAL_LIMIT = 0.05
MAX_ATTEMPTS = 2

_ROUTER_LINE = re.compile(
    r"fleet router over \d+ replicas \(\w+=([\d.]+):(\d+)\) on ([\d.]+):(\d+)"
)


def _request(x) -> bytes:
    return (json.dumps({"op": "predict", "x": x}) + "\n").encode()


class Fleet:
    """The system under test: one ``python -m repro fleet`` process tree."""

    def __init__(self, model_path: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "fleet", "--model", model_path,
             "--replicas", "1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.output = deque(maxlen=200)
        lines: "queue.Queue[str]" = queue.Queue()
        self._drain = threading.Thread(target=self._pump, args=(lines,),
                                       daemon=True)
        self._drain.start()
        deadline = now() + BOOT_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - now()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("fleet did not announce its router:\n"
                                   + "".join(self.output))
            match = _ROUTER_LINE.search(line)
            if match:
                break
        self.replica = (match.group(1), int(match.group(2)))
        self.router = (match.group(3), int(match.group(4)))
        self.replica_pids = child_pids(self.proc.pid)

    def _pump(self, lines) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            lines.put(line)
        lines.put("")

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid, *self.replica_pids])

    def stop(self) -> None:
        try:
            with socket.create_connection(self.router, timeout=5.0) as sock:
                sock.sendall(b'{"op": "shutdown"}\n')
                sock.makefile("rb").readline()
        except (OSError, AttributeError):
            pass
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        for pid in getattr(self, "replica_pids", []):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._drain.join(timeout=10.0)


class Conn:
    """One blocking connection; replies arrive in request order."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, payload: bytes):
        self.sock.sendall(payload)
        return json.loads(self.reader.readline())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _wait_first_ok(addr, payload: bytes) -> None:
    deadline = now() + BOOT_TIMEOUT_S
    while True:
        try:
            conn = Conn(addr)
            try:
                if conn.call(payload).get("ok"):
                    return
            finally:
                conn.close()
        except (OSError, ValueError):
            pass
        if now() > deadline:
            raise RuntimeError("fleet never answered a predict")
        time.sleep(0.05)


class Checker:
    """Compares every reply with the in-process prediction."""

    def __init__(self, expected: np.ndarray, fingerprint: str):
        self.expected = expected
        self.fingerprint = fingerprint
        self.failed = 0
        self.mismatched = 0

    def ok(self, reply, rows) -> bool:
        if not isinstance(reply, dict) or not reply.get("ok"):
            self.failed += 1
            return False
        if (reply.get("version") != 1 or reply.get("fingerprint") != self.fingerprint
                or reply.get("labels") != self.expected[rows].tolist()):
            self.mismatched += 1
            return False
        return True


@contextmanager
def _generator_gc_off():
    """The load generator collects no garbage while it times requests: a
    collection pause here would be charged to the system under test."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _open_loop(addr, schedule, payloads, checker, tracer, traced):
    """Send ``schedule`` [(due offset s, rows)] round-robin over the
    connections from one sender thread; each request is timed from its due
    time. Replies are parsed only after the loop."""
    results = [None] * len(schedule)
    conns = [Conn(addr) for _ in range(CONNECTIONS)]
    fifos = [deque() for _ in range(CONNECTIONS)]
    phase_start = now()
    t_start = phase_start + 0.05

    def sender():
        for k, (offset, _) in enumerate(schedule):
            due = t_start + offset
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            fifos[k % CONNECTIONS].append((k, due, now()))
            conns[k % CONNECTIONS].sock.sendall(payloads[k])

    def reader(c):
        for _ in range(c, len(schedule), CONNECTIONS):
            line = conns[c].reader.readline()
            done = now()
            k, due, sent = fifos[c].popleft()
            results[k] = (due, sent, done, line)

    threads = [threading.Thread(target=sender)]
    threads += [threading.Thread(target=reader, args=(c,)) for c in range(CONNECTIONS)]
    with _generator_gc_off():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for conn in conns:
        conn.close()
    phase = tracer.add("open_loop", phase_start, now()) if traced else None

    single, batch, lag, units, served, truth_rows = [], [], [], [], [], []
    for k, result in enumerate(results):
        rows = schedule[k][1]
        if result is None:  # the connection failed before this reply
            checker.failed += 1
            continue
        due, sent, done, line = result
        reply = json.loads(line) if line else None
        if not checker.ok(reply, rows):
            continue
        (batch if len(rows) > 1 else single).append((done - due) * 1e3)
        lag.append((sent - due) * 1e3)
        if len(rows) == 1:
            served.append(reply["labels"][0])
            truth_rows.append(rows[0])
            traced_request = traced and k % 2 == 1
            units.append((done - due, traced_request))
            if traced_request:
                tracer.add("request", due, done, parent=phase, layer="fleet")
    return single, batch, lag, units, served, truth_rows


def _closed_loop(addr, seconds, pool_payloads, order, checker, tracer, traced):
    """Each connection sends its next single-point request on the reply.

    Returns the requests sent and the median completion rate over blocks of
    ``CAPACITY_BLOCK`` consecutive replies, which a short stall of the host
    moves less than the mean rate.
    """
    replies = [[] for _ in range(CONNECTIONS)]
    deadline = now() + seconds
    phase_start = now()

    def client(c):
        conn = Conn(addr)
        i = c
        try:
            while now() < deadline:
                row = int(order[i % len(order)])
                t0 = now()
                conn.sock.sendall(pool_payloads[row])
                replies[c].append((row, t0, conn.reader.readline(), now()))
                i += CONNECTIONS
        except OSError:  # counted as one more failed request
            replies[c].append((None, None, b"", None))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CONNECTIONS)]
    with _generator_gc_off():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    phase = tracer.add("closed_loop", phase_start, now()) if traced else None
    completed = []
    for row, t0, line, t1 in (r for per_conn in replies for r in per_conn):
        if checker.ok(json.loads(line) if line else None, [row]):
            completed.append(t1)
            if traced:
                tracer.add("request", t0, t1, parent=phase, layer="fleet")
    completed.sort()
    rates = [CAPACITY_BLOCK / (completed[i + CAPACITY_BLOCK] - completed[i])
             for i in range(0, len(completed) - CAPACITY_BLOCK, CAPACITY_BLOCK)]
    return sum(len(r) for r in replies), p50(rates)


def _replay(model, fleet, pool, pool_payloads, order, checkers, out, tracer):
    """Traced-run extras: router vs direct replica, in-process layers."""
    router, direct = Conn(fleet.router), Conn(fleet.replica)
    via_router, via_replica = [], []
    for i in range(REPLAY_REQUESTS):
        row = int(order[i])
        for conn, times, layer in ((router, via_router, "fleet"),
                                   (direct, via_replica, "serve")):
            t0 = now()
            reply = conn.call(pool_payloads[row])
            times.append(now() - t0)
            ok = checkers[layer].ok(reply, [row])
            tracer.add("request", t0, t0 + times[-1], layer=layer,
                       status="ok" if ok else "error")
            out.attempted += 1
    stats = direct.call(b'{"op": "stats"}\n')
    router.close()
    direct.close()

    def timed_us(fn, args_list):
        times = []
        for args in args_list:
            t0 = time.perf_counter()
            fn(*args)
            times.append((time.perf_counter() - t0) * 1e6)
        return p50(times)

    rows = [(pool[int(r)][None, :],) for r in order[:REPLAY_REQUESTS]]
    starts = order[:REPLAY_REQUESTS // 4] % (POOL_ROWS - BATCH_ROWS)
    batches = [(pool[int(s):int(s) + BATCH_ROWS],) for s in starts]
    registry = ModelRegistry()
    registry.publish(model)
    service = InferenceService(registry)
    batch_us = timed_us(model.predict, batches)

    answer = {"ok": True, "labels": [0], "version": 1,
              "fingerprint": checkers["serve"].fingerprint}

    def wire(row):
        # Encode and decode one single-point request and its reply.
        json.loads(_request(row[0].tolist()))
        json.loads(json.dumps(answer))

    cache = stats["cache"]
    return {
        "replica.rtt_p50_ms": p50(via_replica) * 1e3,
        "router.added_ms": (p50(via_router) - p50(via_replica)) * 1e3,
        "model.predict_1row_us": timed_us(model.predict, rows),
        "model.predict_batch_us_per_row": batch_us / BATCH_ROWS,
        "predict.rows_per_s": BATCH_ROWS / (batch_us / 1e6),
        "service.predict_rows_us": timed_us(service.predict_rows, rows),
        "wire.json_roundtrip_us": timed_us(wire, rows),
        "batcher.mean_batch": stats["mean_batch_size"],
        "cache.hit_rate": cache["hit_rate"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
    }


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    os.makedirs(OUT_DIR, exist_ok=True)
    model_path = os.path.join(OUT_DIR, f"serve-model-seed{seed}.json")

    def once(last: bool):
        t0 = now()
        x, y = Mixture(N_DIMS, N_CLUSTERS).sample(TRAIN_ROWS + POOL_ROWS, seed, 6)
        model = KeyBin2(n_projections=4, seed=ESTIMATOR_SEED).fit(x[:TRAIN_ROWS]).model_
        model.save(model_path)
        fleet = Fleet(model_path)
        try:
            _wait_first_ok(fleet.router, _request(x[TRAIN_ROWS].tolist()))
        except BaseException:
            fleet.stop()
            raise
        elapsed = now() - t0
        if not last:
            fleet.stop()
        return elapsed, (fleet, x[TRAIN_ROWS:], y[TRAIN_ROWS:])

    setup_s, setup_all, (fleet, pool, truth) = median_setup(once, SETUP_REPEATS)
    try:
        return _measure(out, fleet, model_path, pool, truth, seed, seconds,
                        traced, setup_s, setup_all)
    finally:
        fleet.stop()


def _measure(out, fleet, model_path, pool, truth, seed, seconds, traced,
             setup_s, setup_all):
    # The replica serves the saved file, so the reference loads it too.
    model = KeyBin2Model.load(model_path)
    checker = Checker(model.predict(pool), model.fingerprint())
    pool_payloads = [_request(row.tolist()) for row in pool]
    rng = np.random.default_rng([seed, 3])
    order = rng.integers(POOL_ROWS, size=100_000)
    warmed, _ = _closed_loop(fleet.router, WARMUP_S, pool_payloads,
                             order[::-1], checker, Tracer(), False)

    n_open = int(OPEN_RATE * seconds * OPEN_SHARE)
    schedule, payloads = [], []
    for k in range(n_open):
        if k % BATCH_EVERY == BATCH_EVERY - 1:
            start = int(rng.integers(POOL_ROWS - BATCH_ROWS))
            rows = list(range(start, start + BATCH_ROWS))
            payloads.append(_request(pool[start:start + BATCH_ROWS].tolist()))
        else:
            rows = [int(order[k])]
            payloads.append(pool_payloads[rows[0]])
        schedule.append((k / OPEN_RATE, rows))
    out.attempted = warmed
    # Host speed around the measured window, recorded for context only:
    # latency and capacity are not scaled (see NOTES.md).
    gauge = SpeedGauge(now, 16)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        # A window in which the hypervisor took the vCPUs away for more
        # than STEAL_LIMIT of the time measures the neighbours, not the
        # fleet: it is measured again (its replies are still checked).
        tracer = Tracer()
        stolen = StealMeter()
        gauge.mark()
        single, batch, lag, units, served, truth_rows = _open_loop(
            fleet.router, schedule, payloads, checker, tracer, traced)
        n_closed, capacity = _closed_loop(
            fleet.router, seconds * (1.0 - OPEN_SHARE), pool_payloads, order,
            checker, tracer, traced)
        out.attempted += n_open + n_closed
        steal = stolen.share()
        gauge.mark()
        if steal <= STEAL_LIMIT:
            break

    # Requests straight to the replica (traced runs) are checked apart, so
    # a failure is attributed to the layer it happened in.
    direct = Checker(checker.expected, checker.fingerprint)
    extras = {}
    if traced:
        extras = _replay(model, fleet, pool, pool_payloads, order,
                         {"fleet": checker, "serve": direct}, out, tracer)
    rss = fleet.peak_rss_mb()

    out.failed = sum(c.failed + c.mismatched for c in (checker, direct))
    out.check(checker.mismatched + direct.mismatched == 0,
              "replies disagree with in-process predict")
    out.check(len(single) > 0 and len(batch) > 0, "no successful requests")
    ari = float(adjusted_rand_index(truth[truth_rows], served))
    out.check(ari >= ARI_FLOOR, f"served-label ARI {ari:.3f} below {ARI_FLOOR}")

    tail_ms, tail_pct, n_single = tail(single, TAIL_PCT)
    lag_tail, lag_pct, _ = tail(lag, LAG_TAIL_PCT)
    out.named = {
        "setup_s": (setup_s, "s"),
        "serve_capacity_rps": (capacity, "1/s"),
        "predict_p50_ms": (p50(single), "ms"),
        f"predict_p{tail_pct:g}_ms": (tail_ms, f"ms, n={n_single}"),
        "batch_predict_p50_ms": (p50(batch), f"ms, n={len(batch)}"),
        f"generator_lag_p{lag_pct:g}_ms": (lag_tail, "ms"),
        "served_ari": (ari, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.info = {"setup_runs_s": setup_all, "tail_pct": tail_pct,
                "tail_samples": n_single, "open_requests": n_open,
                "attempts": attempt, "steal_share": steal,
                "predict_pcts_ms": {p: float(np.percentile(single, p))
                                    for p in (75, 90, 95, 98, 99)},
                "open_rate": OPEN_RATE, "closed_requests": n_closed,
                "reference_s": p50(gauge.marks[-2:])}
    if not traced:
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": capacity,
            "op_p50_ms": p50(single),
            "op_tail_ms": tail_ms,
            "op2_p50_ms": p50(batch),
            "quality": ari,
            "peak_rss_mb": rss,
        }
        return out

    spans = tracer.spans
    out.metrics = {
        **extras,
        "generator.lag_tail_ms": lag_tail,
        "serve.failed": direct.failed + direct.mismatched,
        "fleet.failed": checker.failed + checker.mismatched,
        "unattributed_frac": unattributed_frac(spans, "closed_loop"),
        "trace.overhead_frac": interleaved_overhead(units),
    }
    out.spans = spans
    return out

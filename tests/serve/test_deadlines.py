"""Per-request deadlines: expired work is shed, never hung.

The batcher-level tests pin the mechanism (shed at flush, before the
model call); the end-to-end tests pin the wiring: a ``deadline_ms``
budget rides the wire, expires while the request waits in the batcher's
queue behind a slow flush, and comes back as a typed
``deadline_exceeded`` response — while the queue-wait histogram records
how long the row actually sat.
"""

import asyncio
import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, ServeError
from repro.serve import (
    BatchPolicy,
    MicroBatcher,
    ModelRegistry,
    ServeClient,
    serve_in_thread,
)
from repro.serve.stats import ServeStats


class TestBatcherDeadlines:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_expired_entry_shed_before_model_call(self):
        calls = {"n": 0}

        def predict_rows(rows):
            calls["n"] += 1
            return np.zeros(rows.shape[0], dtype=np.int64), None

        async def scenario():
            stats = ServeStats()
            batcher = MicroBatcher(
                predict_rows, BatchPolicy(max_delay_s=0.0), stats
            ).start()
            expired = time.monotonic() - 0.01
            fut = batcher.submit_nowait(np.zeros(3), deadline=expired)
            with pytest.raises(DeadlineExceededError):
                await fut
            await batcher.stop()
            return stats

        stats = self._run(scenario())
        assert calls["n"] == 0  # shed rows never burn model time
        assert stats.deadline_expired_total == 1
        snap = stats.snapshot()
        assert snap["deadline_expired_total"] == 1
        assert snap["queue_wait"]["count"] == 1

    def test_live_entries_survive_a_mixed_flush(self):
        def predict_rows(rows):
            return np.arange(rows.shape[0], dtype=np.int64), "extra"

        async def scenario():
            batcher = MicroBatcher(
                predict_rows, BatchPolicy(max_delay_s=0.0)
            ).start()
            expired = time.monotonic() - 0.01
            f_dead = batcher.submit_nowait(np.zeros(3), deadline=expired)
            f_live = batcher.submit_nowait(np.ones(3), deadline=None)
            with pytest.raises(DeadlineExceededError):
                await f_dead
            label, extra = await f_live
            return label, extra

        label, extra = self._run(scenario())
        assert label == 0  # the shed row was removed before stacking
        assert extra == "extra"

    def test_queue_wait_recorded_for_labeled_rows_too(self):
        def predict_rows(rows):
            return np.zeros(rows.shape[0], dtype=np.int64), None

        async def scenario():
            stats = ServeStats()
            batcher = MicroBatcher(
                predict_rows, BatchPolicy(max_delay_s=0.0), stats
            ).start()
            await batcher.submit(np.zeros(3))
            await batcher.stop()
            return stats

        stats = self._run(scenario())
        assert stats.snapshot()["queue_wait"]["count"] == 1


#: How long every model call after the held one takes in the end-to-end
#: tests: the time a row queued behind another waits, far past 10 ms.
SLOW_CALL_S = 0.05
#: How long the held model call keeps the server's event loop blocked
#: after the row ahead is sent: time for the caller to send its request.
HOLD_S = 0.3


def _send_line(sock, payload):
    sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")


@contextmanager
def queued_behind_slow_flush(handle, rows):
    """Make the next single-row predict wait in the batcher's queue.

    Needs a server with ``max_batch=1``. A blocker row's model call holds
    the server's event loop; meanwhile a row is sent ahead of the caller's
    request, which the caller sends inside the block. When the loop
    resumes, both requests parse in one loop iteration (the row ahead
    first, in arrival order) and queue together; the row ahead's flush
    takes :data:`SLOW_CALL_S`, so the caller's row waits in the queue for
    at least that long before its own flush.
    """
    batcher = handle.server.batcher
    original = batcher.predict_rows
    entered, release = threading.Event(), threading.Event()

    def predict_rows(matrix):
        if not entered.is_set():
            entered.set()
            release.wait(5.0)
        else:
            time.sleep(SLOW_CALL_S)
        return original(matrix)

    batcher.predict_rows = predict_rows
    socks = [socket.create_connection(handle.address, timeout=10.0)
             for _ in range(2)]
    files = [sock.makefile("rb") for sock in socks]
    timer = threading.Timer(HOLD_S, release.set)
    try:
        for sock, f in zip(socks, files):  # both handlers are now reading
            _send_line(sock, {"op": "healthz"})
            assert json.loads(f.readline())["ok"]
        blocker, ahead = socks
        _send_line(blocker, {"op": "predict", "x": rows[0].tolist()})
        assert entered.wait(5.0)
        _send_line(ahead, {"op": "predict", "x": rows[1].tolist()})
        timer.start()
        yield
        for f in files:
            assert json.loads(f.readline())["ok"]
    finally:
        release.set()
        timer.cancel()
        batcher.predict_rows = original
        for f, sock in zip(files, socks):
            f.close()
            sock.close()


class TestDeadlinesEndToEnd:
    @pytest.fixture()
    def lingering(self, served_model):
        """A server that flushes one row at a time (``max_batch=1``), so
        :func:`queued_behind_slow_flush` can keep a row queued."""
        registry = ModelRegistry()
        registry.publish(served_model)
        policy = BatchPolicy(max_batch=1, max_delay_s=0.2)
        with serve_in_thread(registry, policy=policy) as handle:
            with ServeClient(*handle.address) as client:
                yield handle, client

    def test_deadline_expires_in_queue(self, lingering, small_gaussians):
        handle, client = lingering
        x, _ = small_gaussians
        with queued_behind_slow_flush(handle, x[1:3]):
            with pytest.raises(DeadlineExceededError):
                client.predict(x[0], deadline_ms=10.0)
        stats = client.stats()
        assert stats["deadline_expired_total"] >= 1
        assert stats["queue_wait"]["count"] >= 1
        # Sheds and expiries are intended degradation, not server errors.
        assert stats["errors_total"] == 0

    def test_generous_deadline_is_met(self, lingering, small_gaussians,
                                      served_model):
        _, client = lingering
        x, _ = small_gaussians
        result = client.predict(x[0], deadline_ms=5000.0)
        assert result.label == int(served_model.predict(x[:1])[0])

    def test_batch_predict_accepts_deadline(self, lingering, small_gaussians,
                                            served_model):
        """The batch path bypasses the micro-batcher but still resolves
        and honors the budget at arrival."""
        _, client = lingering
        x, _ = small_gaussians
        result = client.predict(x[:16], deadline_ms=5000.0)
        assert result.labels == [int(v) for v in served_model.predict(x[:16])]

    def test_garbage_deadline_is_clean_validation_error(
        self, lingering, small_gaussians
    ):
        handle, client = lingering
        x, _ = small_gaussians
        response = client.request(
            {"op": "predict", "x": x[0].tolist(), "deadline_ms": "soon"}
        )
        assert response["ok"] is False
        assert "deadline_ms" in response["error"]
        # A client bug must not move the circuit breaker.
        assert handle.server.circuit.state == "closed"

    def test_deadline_exceeded_is_not_retried(self, served_model,
                                              small_gaussians):
        """deadline_exceeded is terminal: retrying cannot help (the budget
        is spent), so even a retrying client surfaces it immediately."""
        registry = ModelRegistry()
        registry.publish(served_model)
        policy = BatchPolicy(max_batch=1, max_delay_s=0.2)
        x, _ = small_gaussians
        with serve_in_thread(registry, policy=policy) as handle:
            client = ServeClient(*handle.address, retries=3)
            with queued_behind_slow_flush(handle, x[1:3]):
                t0 = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    client.predict(x[0], deadline_ms=10.0)
                elapsed = time.monotonic() - t0
            client.close()
        # One hold of the event loop (~0.3 s), not four retry rounds of it.
        assert elapsed < 1.0

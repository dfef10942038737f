"""ServeClient retry semantics: idempotent ops only, bounded, backed off."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs.registry import MetricsRegistry, set_default_registry
from repro.serve import ModelRegistry, ServeClient, serve_in_thread
from repro.serve import client as client_mod
from repro.serve.client import IDEMPOTENT_OPS, _ConnectionLost


@pytest.fixture()
def retry_registry():
    """Fresh default obs registry so retry counters are test-local."""
    reg = MetricsRegistry()
    previous = set_default_registry(reg)
    yield reg
    set_default_registry(previous)


def _retry_count(reg, op):
    fam = reg.get("serve_client_retries_total")
    if fam is None:
        return 0
    return sum(
        s["value"] for s in fam.snapshot()["samples"]
        if s["labels"]["op"] == op
    )


class _FlakyServer:
    """Tiny line-JSON server that kills its first ``drop_first`` connections.

    A dropped connection is accepted and immediately closed — the client's
    next read returns EOF, the ambiguous failure the retry layer handles.
    Later connections answer every request with ``{"ok": true, "op": ...}``.
    """

    def __init__(self, drop_first=0):
        self.drop_first = drop_first
        self.accepts = 0
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        self._listener.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.accepts += 1
            if self.accepts <= self.drop_first:
                conn.close()
                continue
            threading.Thread(
                target=self._answer, args=(conn,), daemon=True
            ).start()

    def _answer(self, conn):
        with conn, conn.makefile("rwb") as fh:
            while True:
                line = fh.readline()
                if not line:
                    return
                payload = json.loads(line)
                self.requests.append(payload["op"])
                fh.write(json.dumps({"ok": True, "op": payload["op"]})
                         .encode() + b"\n")
                fh.flush()

    def wait_accepts(self, n, timeout=5.0):
        """Block until ``n`` connections were accepted (handshake alone
        completes via the listen backlog, before the accept loop runs)."""
        deadline = time.monotonic() + timeout
        while self.accepts < n:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"server accepted {self.accepts}/{n} connections"
                )
            time.sleep(0.01)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestConnectRetry:
    def test_connect_refused_then_succeeds(self, retry_registry, monkeypatch):
        """The server comes up late; a retrying client rides it out."""
        # Pick the port up front so the client dials a known address that
        # refuses until the server binds it.
        srv_holder = _FlakyServer()
        port = srv_holder.port
        srv_holder.close()  # port now refuses connections

        def bring_up():
            time.sleep(0.3)
            listener = socket.create_server(("127.0.0.1", port))
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as fh:
                line = fh.readline()
                fh.write(json.dumps({"ok": True}).encode() + b"\n")
                fh.flush()
            listener.close()

        threading.Thread(target=bring_up, daemon=True).start()
        monkeypatch.setattr(client_mod, "RETRY_BACKOFF_S", 0.02)
        monkeypatch.setattr(client_mod, "RETRY_BACKOFF_MAX_S", 0.1)
        monkeypatch.setattr(client_mod, "RETRY_JITTER", 0.0)
        client = ServeClient("127.0.0.1", port, timeout=5.0, retries=40)
        assert client.healthz()["ok"] is True
        client.close()
        assert _retry_count(retry_registry, "connect") >= 1

    def test_zero_retries_raises_immediately(self):
        port = _free_port()
        t0 = time.monotonic()
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient("127.0.0.1", port, timeout=2.0, retries=0)
        assert time.monotonic() - t0 < 2.0

    def test_bad_retry_config_rejected(self):
        with pytest.raises(ServeError):
            ServeClient(retries=-1)


class TestIdempotentRetry:
    def test_dropped_connection_retried_and_counted(self, retry_registry,
                                                     fast_retries):
        srv = _FlakyServer(drop_first=0)
        try:
            client = ServeClient("127.0.0.1", srv.port, timeout=5.0,
                                 retries=5)
            # Kill the live connection server-side by draining accepts:
            # simulate with a fresh flaky server is racy, so instead close
            # the client's socket under it — the next request sees EOF/reset
            # and must transparently reconnect.
            srv.wait_accepts(1)
            client._sock.shutdown(socket.SHUT_RDWR)
            out = client.healthz()
            assert out["ok"] is True
            srv.wait_accepts(2)
            assert srv.accepts == 2
            assert _retry_count(retry_registry, "healthz") >= 1
            client.close()
        finally:
            srv.close()

    def test_mutating_ops_never_retried(self, retry_registry, fast_retries):
        """reload/shutdown must surface the failure, not replay it."""
        srv = _FlakyServer()
        try:
            client = ServeClient("127.0.0.1", srv.port, timeout=5.0,
                                 retries=5)
            srv.wait_accepts(1)
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ServeError):
                client.reload("/tmp/whatever.kb2")
            time.sleep(0.3)                  # would-be reconnect window
            assert srv.accepts == 1          # no reconnect happened
            assert "reload" not in srv.requests
            assert _retry_count(retry_registry, "reload") == 0
            client.close()
        finally:
            srv.close()

    def test_reload_and_shutdown_not_marked_idempotent(self):
        assert "reload" not in IDEMPOTENT_OPS
        assert "shutdown" not in IDEMPOTENT_OPS

    def test_retries_exhausted_raises(self, retry_registry, fast_retries):
        srv = _FlakyServer(drop_first=100)
        try:
            client = ServeClient("127.0.0.1", srv.port, timeout=5.0,
                                 retries=2)
            with pytest.raises(ServeError):
                client.healthz()
            assert _retry_count(retry_registry, "healthz") == 2
        finally:
            srv.close()


class TestBackoff:
    def _bare_client(self, **kw):
        client = ServeClient.__new__(ServeClient)
        client.backoff = kw.get("backoff", 0.05)
        client.backoff_max = kw.get("backoff_max", 0.2)
        client.jitter = kw.get("jitter", 0.0)
        import random
        client._rng = random.Random(0)
        return client

    def test_exponential_growth_with_cap(self, monkeypatch):
        client = self._bare_client()
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        for attempt in range(4):
            client._backoff_sleep(attempt)
        assert slept == [0.05, 0.1, 0.2, 0.2]

    def test_jitter_stays_within_band(self, monkeypatch):
        client = self._bare_client(jitter=0.25)
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        for _ in range(50):
            client._backoff_sleep(0)
        assert all(0.05 * 0.75 <= s <= 0.05 * 1.25 for s in slept)
        assert len(set(slept)) > 1       # jitter actually varies


class TestAgainstRealServer:
    def test_retrying_client_works_end_to_end(self, served_model, fast_retries):
        registry = ModelRegistry()
        registry.publish(served_model)
        with serve_in_thread(registry) as handle:
            host, port = handle.address
            with ServeClient(host, port, retries=3) as client:
                n = int(client.model_info()["n_features"])
                result = client.predict(np.zeros(n, dtype=np.float64))
                assert isinstance(result.label, int)
                assert client.healthz()["ok"] is True

"""Server and router lifecycle: framing, drain on stop, and teardown.

Both front ends run on the one line-server core, so each test runs against
a thread server and a thread router over one thread replica. A task left
pending when its loop closes is reported by asyncio ("Task was destroyed
but it is pending!") only when the task is garbage collected, so the
teardown tests collect explicitly and inspect the log. They fail on any
asyncio error, also the one Python 3.11 logs when loop teardown cancels a
connection handler ("Exception in callback StreamReaderProtocol...").
"""

import asyncio
import gc
import json
import logging
import socket
import threading
import time

import pytest

from repro.errors import ServeError
from repro.fleet import router_in_thread
from repro.serve import ModelRegistry, ServeClient, serve_in_thread
from repro.serve.server import LINE_LIMIT, ModelServer


@pytest.fixture()
def registry(served_model):
    registry = ModelRegistry()
    registry.publish(served_model)
    return registry


@pytest.fixture()
def taken_port():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        yield blocker.getsockname()[1]
    finally:
        blocker.close()


@pytest.fixture(params=["server", "router"])
def launch(request, registry):
    """Start the front end under test on a thread; returns its handle."""
    if request.param == "server":
        yield lambda **kw: serve_in_thread(registry, **kw)
        return
    with serve_in_thread(registry) as replica:
        yield lambda **kw: router_in_thread(
            [("r0", *replica.address)], probe_interval_s=60.0, **kw)


def _asyncio_errors(caplog):
    gc.collect()
    return [r.getMessage() for r in caplog.records if r.name == "asyncio"]


def test_failed_start_stops_the_batcher(registry, taken_port):
    async def scenario():
        server = ModelServer(registry, port=taken_port)
        with pytest.raises(OSError):
            await server.start()
        return asyncio.all_tasks() - {asyncio.current_task()}

    assert asyncio.run(scenario()) == set()


def test_no_task_pending_after_failed_start(launch, taken_port, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    before = set(threading.enumerate())
    with pytest.raises(ServeError, match="failed to start"):
        launch(port=taken_port)
    for thread in set(threading.enumerate()) - before:
        thread.join(10.0)
        assert not thread.is_alive()
    assert _asyncio_errors(caplog) == []


def test_no_task_pending_after_clean_exit(launch, small_gaussians, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    x, _ = small_gaussians
    with launch() as handle:
        idle = ServeClient(*handle.address)  # left connected at shutdown
        with ServeClient(*handle.address) as client:
            client.predict(x[0])
    idle.close()
    assert not handle.thread.is_alive()
    assert _asyncio_errors(caplog) == []


def test_long_request_line(launch, served_model, small_gaussians, caplog):
    # A 400-row, 16-dim batch predict is a ~115 KB line, past asyncio's
    # default 64 KiB reader limit; it gets its labels. A line over the
    # server's limit is read to its newline and answered with an error,
    # and the connection keeps serving.
    caplog.set_level(logging.ERROR, logger="asyncio")
    x, _ = small_gaussians
    batch = json.dumps({"op": "predict", "x": x[:400].tolist()}).encode()
    assert len(batch) > 1 << 16
    too_long = b'{"op": "predict", "x": [' + b"0.0, " * (LINE_LIMIT // 5) + b"0.0]}"
    with launch() as handle:
        with socket.create_connection(handle.address, timeout=30.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(batch + b"\n")
            reply = json.loads(reader.readline())
            assert reply["ok"], reply
            assert reply["labels"] == served_model.predict(x[:400]).tolist()
            sock.sendall(too_long + b"\n")
            reply = json.loads(reader.readline())
            assert reply == {"ok": False, "error": (
                f"request line longer than {LINE_LIMIT} bytes")}
            sock.sendall(b'{"op": "healthz"}\n')
            assert json.loads(reader.readline())["ok"]
    assert _asyncio_errors(caplog) == []


def test_unterminated_last_line_is_dropped(launch):
    # The newline delimits a request: a last line that EOF cuts short is
    # never answered, and the server keeps serving other clients.
    with launch() as handle:
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(b'{"op": "healthz"}')
            sock.shutdown(socket.SHUT_WR)
            assert sock.makefile("rb").read() == b""
        with ServeClient(*handle.address) as client:
            assert client.request({"op": "healthz"})["ok"]


def test_stop_drains_in_flight_predict(launch, registry, small_gaussians,
                                       monkeypatch):
    x, _ = small_gaussians
    current = registry.current

    def slow_current():
        time.sleep(0.3)  # holds the predict on the (replica) server
        return current()

    handle = launch()
    try:
        with socket.create_connection(handle.address, timeout=10.0) as sock:
            monkeypatch.setattr(registry, "current", slow_current)
            sock.sendall((json.dumps({"op": "predict", "x": x[0].tolist()})
                          + "\n").encode())
            time.sleep(0.1)
            handle.stop()  # returns once the drain has ended
            reply = json.loads(sock.makefile("rb").readline())
    finally:
        handle.stop()
    assert reply["ok"] and len(reply["labels"]) == 1

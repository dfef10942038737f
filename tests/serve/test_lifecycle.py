"""Server lifecycle: no task outlives the event loop it ran on.

A batcher worker left pending when its loop closes is reported by asyncio
("Task was destroyed but it is pending!") only when the task is garbage
collected, so these tests collect explicitly and inspect the log.
"""

import asyncio
import gc
import logging
import socket
import threading

import pytest

from repro.errors import ServeError
from repro.serve import ModelRegistry, ServeClient, serve_in_thread
from repro.serve.server import ModelServer


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


def _destroyed_pending(caplog):
    gc.collect()
    return [r.getMessage() for r in caplog.records
            if "destroyed but it is pending" in r.getMessage()]


def test_failed_start_stops_the_batcher(registry, taken_port):
    async def scenario():
        server = ModelServer(registry, port=taken_port)
        with pytest.raises(OSError):
            await server.start()
        return asyncio.all_tasks() - {asyncio.current_task()}

    assert asyncio.run(scenario()) == set()


def test_no_task_pending_after_failed_start(registry, taken_port, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    before = set(threading.enumerate())
    with pytest.raises(ServeError, match="failed to start"):
        serve_in_thread(registry, port=taken_port)
    for thread in set(threading.enumerate()) - before:
        thread.join(10.0)
        assert not thread.is_alive()
    assert _destroyed_pending(caplog) == []


def test_no_task_pending_after_clean_exit(registry, small_gaussians, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    x, _ = small_gaussians
    with serve_in_thread(registry) as handle:
        idle = ServeClient(*handle.address)  # left connected at shutdown
        with ServeClient(*handle.address) as client:
            client.predict(x[0])
    idle.close()
    assert not handle.thread.is_alive()
    assert _destroyed_pending(caplog) == []

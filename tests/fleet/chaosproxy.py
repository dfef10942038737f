"""Deterministic network fault injection between router and replicas (a test fixture).

SIGKILL-based chaos (``tests/fleet/test_chaos_smoke.py``) exercises only
the cleanest failure mode a fleet can have: a replica that dies *fast*.
Real networks fail worse — connections hang, responses arrive truncated,
a partition swallows SYNs silently — and those are the modes that expose
retry amplification and failover bugs. :class:`ChaosProxy` is an asyncio
TCP proxy tests interpose between the router and one replica (or between
a client and the router) that injects exactly those faults, *deterministically*:
every fault fires at a declared connection index and response-line index,
so a chaos test that passes once passes always — the same discipline as
:mod:`repro.comm.faults`, ported from message-passing to sockets.

Faults are declared in a :class:`ChaosPlan`, written in code or parsed
from a compact spec (comma separated; connection indices are 1-based in
accept order, ``0`` is a wildcard matching every connection)::

    partition:3          reset connections 3+ on accept (until heal())
    partition:3-5        reset connections 3..5 on accept, 6+ connect fine
    delay:0:0.05         sleep 50 ms before forwarding every response line
    delay:2:0.1:0.5      conn 2: 100 ms ± 50% deterministic jitter
    reset:1@4            conn 1: reset instead of forwarding its 4th response
    trunc:2@1:20         conn 2: forward 20 bytes of response 1, then reset
    slow:0:16:0.02       trickle every response 16 bytes per 20 ms (slow-loris)

Responses are counted in wire frames (newline-delimited JSON lines), so
``reset:1@4`` means "the 4th reply this connection would have carried" —
mid-response from the client's point of view, after the request was sent.

The proxy also supports *imperative* partitioning for tests that need a
fault bracketed around a specific action: :meth:`ChaosProxy.partition`
resets every live connection and refuses new ones until
:meth:`ChaosProxy.heal`. Per-connection byte/line/fault counters are kept
for assertions (`proxy.counters`).
"""

from __future__ import annotations

import asyncio
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ServeError, ValidationError

__all__ = [
    "Partition",
    "DelayLines",
    "ResetAt",
    "TruncateAt",
    "SlowLoris",
    "ChaosPlan",
    "ChaosProxy",
    "ChaosProxyHandle",
    "chaos_proxy_in_thread",
]

#: Stream limit for proxied lines — batch predicts exceed asyncio's 64 KiB
#: default; the proxy must never be the layer that caps request size.
_LINE_LIMIT = 4 * 1024 * 1024
_READ_CHUNK = 65536


@dataclass(frozen=True)
class Partition:
    """Reset connections ``first..last`` (1-based, inclusive) on accept.

    ``last=None`` leaves the partition open-ended: every connection from
    ``first`` on is refused until the plan is replaced or
    :meth:`ChaosProxy.heal` clears imperative state (declarative
    partitions are static — they describe accept order, not time).
    """

    first: int
    last: Optional[int] = None

    def __post_init__(self) -> None:
        if self.first < 1:
            raise ValidationError("partition connections are 1-based")
        if self.last is not None and self.last < self.first:
            raise ValidationError("partition range must be first <= last")

    def matches(self, conn: int) -> bool:
        return conn >= self.first and (self.last is None or conn <= self.last)


@dataclass(frozen=True)
class DelayLines:
    """Sleep ``seconds`` (± ``jitter`` fraction) before each response line."""

    conn: int = 0
    seconds: float = 0.05
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.conn < 0:
            raise ValidationError("conn must be >= 0 (0 = every connection)")
        if self.seconds < 0:
            raise ValidationError("delay must be >= 0")
        if not (0 <= self.jitter < 1):
            raise ValidationError("jitter must be in [0, 1)")


@dataclass(frozen=True)
class ResetAt:
    """Reset the connection instead of forwarding response line ``nth``."""

    conn: int
    nth: int = 1

    def __post_init__(self) -> None:
        if self.conn < 0 or self.nth < 1:
            raise ValidationError("reset needs conn >= 0 and 1-based nth")


@dataclass(frozen=True)
class TruncateAt:
    """Forward only ``nbytes`` of response line ``nth``, then reset."""

    conn: int
    nth: int = 1
    nbytes: int = 16

    def __post_init__(self) -> None:
        if self.conn < 0 or self.nth < 1 or self.nbytes < 0:
            raise ValidationError(
                "trunc needs conn >= 0, 1-based nth, nbytes >= 0"
            )


@dataclass(frozen=True)
class SlowLoris:
    """Trickle every response line ``nbytes`` at a time, ``seconds`` apart."""

    conn: int = 0
    nbytes: int = 16
    seconds: float = 0.02

    def __post_init__(self) -> None:
        if self.conn < 0 or self.nbytes < 1 or self.seconds < 0:
            raise ValidationError(
                "slow needs conn >= 0, nbytes >= 1, seconds >= 0"
            )


@dataclass
class ChaosPlan:
    """A seeded, deterministic set of network faults for one proxy.

    ``seed`` drives delay jitter (per-connection stream, so conn 2's
    jitter does not depend on whether conn 1 ever connected); with
    ``jitter=0`` everywhere the plan reproduces byte-for-byte.
    """

    faults: List[Any] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(
                f, (Partition, DelayLines, ResetAt, TruncateAt, SlowLoris)
            ):
                raise ValidationError(f"unknown chaos fault {f!r}")

    def _for_conn(self, kind, conn: int) -> List[Any]:
        return [
            f for f in self.faults
            if isinstance(f, kind) and f.conn in (0, conn)
        ]

    def partitioned(self, conn: int) -> bool:
        return any(
            f.matches(conn) for f in self.faults if isinstance(f, Partition)
        )

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ChaosPlan":
        """Parse the compact spec (see module docstring)."""
        faults: List[Any] = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            fields = part.split(":")
            kind = fields[0]
            try:
                if kind == "partition" and len(fields) == 2:
                    lo, _, hi = fields[1].partition("-")
                    faults.append(
                        Partition(int(lo), int(hi) if hi else None)
                    )
                elif kind == "delay" and len(fields) in (3, 4):
                    jit = float(fields[3]) if len(fields) == 4 else 0.0
                    faults.append(
                        DelayLines(int(fields[1]), float(fields[2]), jit)
                    )
                elif kind == "reset" and len(fields) == 2:
                    conn_s, nth_s = fields[1].split("@")
                    faults.append(ResetAt(int(conn_s), int(nth_s)))
                elif kind == "trunc" and len(fields) == 3:
                    conn_s, nth_s = fields[1].split("@")
                    faults.append(
                        TruncateAt(int(conn_s), int(nth_s), int(fields[2]))
                    )
                elif kind == "slow" and len(fields) == 4:
                    faults.append(
                        SlowLoris(int(fields[1]), int(fields[2]),
                                  float(fields[3]))
                    )
                else:
                    raise ValueError(f"unknown chaos kind {kind!r}")
            except (ValueError, IndexError) as exc:
                raise ValidationError(
                    f"cannot parse chaos spec {part!r}: {exc} (expected "
                    "partition:N[-M], delay:C:SECS[:JITTER], reset:C@K, "
                    "trunc:C@K:BYTES, slow:C:BYTES:SECS)"
                ) from exc
        return cls(faults, seed=seed)


class _ConnChaos:
    """Resolved fault state for one accepted connection."""

    def __init__(self, plan: ChaosPlan, conn: int):
        self.delays = plan._for_conn(DelayLines, conn)
        self.resets = {f.nth for f in plan._for_conn(ResetAt, conn)}
        self.truncs = {
            f.nth: f.nbytes for f in plan._for_conn(TruncateAt, conn)
        }
        slows = plan._for_conn(SlowLoris, conn)
        self.slow = slows[0] if slows else None
        self._rng = (
            random.Random((plan.seed << 16) ^ conn)
            if any(d.jitter for d in self.delays) else None
        )

    async def before_line(self) -> None:
        for d in self.delays:
            seconds = d.seconds
            if d.jitter and self._rng is not None:
                seconds *= 1.0 + self._rng.uniform(-d.jitter, d.jitter)
            if seconds > 0:
                await asyncio.sleep(seconds)


class ChaosProxy:
    """Asyncio TCP proxy applying a :class:`ChaosPlan` to one upstream.

    Client→upstream bytes are forwarded verbatim as they arrive; the
    upstream→client direction is read in newline frames so line-indexed
    faults (reset/trunc/slow) fire at exact protocol boundaries. Faults
    only ever *remove or delay* bytes — the proxy never corrupts a line
    it forwards, so anything the client successfully parses is authentic.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[ChaosPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = 5.0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = int(upstream_port)
        self.plan = plan if plan is not None else ChaosPlan()
        self.host = host
        self.port = int(port)
        self.connect_timeout = float(connect_timeout)
        self.bound_port: Optional[int] = None
        self.accepted = 0
        #: Per-connection fault/traffic accounting, keyed by 1-based
        #: connection index: bytes_up/bytes_down/lines/resets/partitioned.
        self.counters: Dict[int, Dict[str, int]] = {}
        self._partitioned = False          # imperative partition() state
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._live_writers: set = set()
        # Per-connection handler and pump tasks, cancelled by stop().
        self._tasks: Set[asyncio.Task] = set()
        self._lock = threading.Lock()

    # -- imperative faults ---------------------------------------------------

    def partition(self) -> None:
        """Hard-partition the upstream: kill live connections, refuse new.

        Thread-safe (tests call it from the foreground thread while the
        proxy loop runs in the background); takes effect immediately for
        new connections and asynchronously-soon for live ones.
        """
        with self._lock:
            self._partitioned = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._kill_live)

    def heal(self) -> None:
        """Lift an imperative partition; declarative plan faults remain."""
        with self._lock:
            self._partitioned = False

    @property
    def is_partitioned(self) -> bool:
        with self._lock:
            return self._partitioned

    def _kill_live(self) -> None:
        for writer in list(self._live_writers):
            _abort(writer)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ServeError("chaos proxy already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_LINE_LIMIT
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening, reset every live connection and wait for all
        of its tasks, so none is left pending when the loop closes."""
        if self._server is None:
            return
        self._server.close()
        self._kill_live()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    def _track(self, task: asyncio.Task) -> asyncio.Task:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- data path -----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._track(asyncio.current_task())
        self.accepted += 1
        conn = self.accepted
        stats = self.counters.setdefault(
            conn, {"bytes_up": 0, "bytes_down": 0, "lines": 0,
                   "resets": 0, "partitioned": 0},
        )
        if self.is_partitioned or self.plan.partitioned(conn):
            stats["partitioned"] += 1
            _abort(writer)
            return
        try:
            up_reader, up_writer = await asyncio.wait_for(
                asyncio.open_connection(
                    self.upstream_host, self.upstream_port, limit=_LINE_LIMIT
                ),
                self.connect_timeout,
            )
        except (OSError, asyncio.TimeoutError):
            _abort(writer)
            return
        chaos = _ConnChaos(self.plan, conn)
        self._live_writers.update((writer, up_writer))
        pump_up = self._track(asyncio.ensure_future(
            self._pump_raw(reader, up_writer, stats)
        ))
        pump_down = self._track(asyncio.ensure_future(
            self._pump_lines(up_reader, writer, conn, chaos, stats)
        ))
        try:
            # Either direction dying tears down both: the wire protocol
            # is strictly request/response, so a half-open proxy conn
            # would only wedge the client.
            done, pending = await asyncio.wait(
                {pump_up, pump_down}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        finally:
            self._live_writers.difference_update((writer, up_writer))
            _abort(up_writer)
            _abort(writer)

    async def _pump_raw(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter,
                        stats: Dict[str, int]) -> None:
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                stats["bytes_up"] += len(chunk)
                writer.write(chunk)
                await writer.drain()
        except (OSError, asyncio.IncompleteReadError):
            return

    async def _pump_lines(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter, conn: int,
                          chaos: _ConnChaos,
                          stats: Dict[str, int]) -> None:
        buffer = b""
        try:
            while True:
                nl = buffer.find(b"\n")
                if nl < 0:
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        # Upstream EOF: flush any torn tail verbatim.
                        if buffer:
                            writer.write(buffer)
                            await writer.drain()
                        return
                    buffer += chunk
                    continue
                line, buffer = buffer[:nl + 1], buffer[nl + 1:]
                stats["lines"] += 1
                nth = stats["lines"]
                await chaos.before_line()
                if self.is_partitioned or nth in chaos.resets:
                    stats["resets"] += 1
                    return
                if nth in chaos.truncs:
                    stats["resets"] += 1
                    kept = line[:chaos.truncs[nth]]
                    if kept:
                        writer.write(kept)
                        await writer.drain()
                        stats["bytes_down"] += len(kept)
                    return
                if chaos.slow is not None:
                    for i in range(0, len(line), chaos.slow.nbytes):
                        writer.write(line[i:i + chaos.slow.nbytes])
                        await writer.drain()
                        if i + chaos.slow.nbytes < len(line):
                            await asyncio.sleep(chaos.slow.seconds)
                else:
                    writer.write(line)
                    await writer.drain()
                stats["bytes_down"] += len(line)
        except (OSError, asyncio.IncompleteReadError):
            return

    def snapshot(self) -> Dict[str, Any]:
        """Aggregate + per-connection accounting for test assertions."""
        totals = {"bytes_up": 0, "bytes_down": 0, "lines": 0,
                  "resets": 0, "partitioned": 0}
        for stats in self.counters.values():
            for key in totals:
                totals[key] += stats[key]
        return {
            "accepted": self.accepted,
            "partitioned_now": self.is_partitioned,
            "totals": totals,
            "connections": {str(k): dict(v) for k, v in self.counters.items()},
        }


def _abort(writer: asyncio.StreamWriter) -> None:
    """RST-style close: drop buffered bytes so the peer sees a hard reset."""
    transport = writer.transport
    try:
        if transport is not None and hasattr(transport, "abort"):
            transport.abort()
        else:  # pragma: no cover - non-socket transports
            writer.close()
    except OSError:  # pragma: no cover - already dead
        pass


class ChaosProxyHandle:
    """A :class:`ChaosProxy` running on a daemon thread (tests, CLI)."""

    def __init__(self, proxy: ChaosProxy, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.proxy = proxy
        self.thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        assert self.proxy.bound_port is not None
        return self.proxy.host, self.proxy.bound_port

    def partition(self) -> None:
        self.proxy.partition()

    def heal(self) -> None:
        self.proxy.heal()

    def stop(self, timeout: float = 10.0) -> None:
        if self.thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closing
                pass
            self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - watchdog only
            raise ServeError("chaos proxy thread failed to stop in time")

    def __enter__(self) -> "ChaosProxyHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def chaos_proxy_in_thread(upstream_host: str, upstream_port: int,
                          plan: Optional[ChaosPlan] = None,
                          startup_timeout: float = 10.0,
                          **kwargs) -> ChaosProxyHandle:
    """Start a :class:`ChaosProxy` on a background thread; block until bound.

    Same startup-failure discipline as
    :func:`~repro.fleet.router.router_in_thread`: a bind error surfaces
    as :class:`~repro.errors.ServeError`, never a half-built handle.
    """
    proxy = ChaosProxy(upstream_host, upstream_port, plan=plan, **kwargs)
    started = threading.Event()
    failure: Dict[str, BaseException] = {}
    holder: Dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        stop_event = asyncio.Event()
        holder["stop_event"] = stop_event

        async def _main():
            await proxy.start()
            started.set()  # only after a successful bind
            await stop_event.wait()
            await proxy.stop()

        try:
            loop.run_until_complete(_main())
        except BaseException as exc:  # surface bind errors to the caller
            failure["exc"] = exc
        finally:
            started.set()
            loop.close()

    thread = threading.Thread(target=_run, name="repro-chaos-proxy",
                              daemon=True)
    thread.start()
    if not started.wait(startup_timeout):
        raise ServeError("chaos proxy failed to start within timeout")
    if "exc" in failure:
        raise ServeError(f"chaos proxy failed to start: {failure['exc']}")
    handle = ChaosProxyHandle(proxy, thread, holder["loop"])
    handle._stop_event = holder["stop_event"]
    return handle

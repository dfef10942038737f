"""Replica lifecycle: spawn, monitor, kill, restart N model servers.

The :class:`ReplicaSupervisor` owns the *processes* (or threads) behind
the fleet; the router owns the *routing state*. Keeping them separate
means the router can be pointed at replicas it does not manage (remote
hosts, an orchestrator's pods) while local deployments get a complete
battery-included stack from ``python -m repro fleet``.

Two modes:

* ``process`` — each replica is a ``python -m repro serve`` subprocess
  with its own interpreter, event loop, model registry and caches. Real
  isolation: a replica can be SIGKILLed mid-request and the rest of the
  fleet (and the supervisor) does not notice beyond the router's
  failover. This is what the fleet bench and the chaos smoke use.
* ``thread`` — each replica is a :func:`~repro.serve.server.serve_in_thread`
  server inside this process. No isolation, but startup is ~1000× faster
  and tests can reach into a replica's registry directly; the unit tests
  use this.

Every replica gets a stable id (``r0``, ``r1``, ...) that survives
restarts, so a restarted replica (new port) keeps its routing counters
and metric labels under the same name.

With a :class:`~repro.fleet.journal.RolloutJournal` attached the
supervisor is *version-aware*: a restarted replica boots from the
journal's current artifact (not the original ``--model`` path, which may
be rollouts behind), is probed, reloaded if its fingerprint strays, and
fingerprint-verified **before** the caller learns its endpoint — a
replica that cannot be driven to the fleet's artifact is torn back down
rather than readmitted serving stale labels. Crash-looping replicas get
exponential restart backoff and, past ``quarantine_after`` consecutive
fast crashes, a quarantine (``fleet_replica_quarantined`` gauge) instead
of a hot restart loop.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError, ValidationError
from repro.obs import default_registry
from repro.serve.client import probe

__all__ = ["ReplicaSupervisor"]

#: The ``serve`` CLI announces its bind as "... on HOST:PORT"; the
#: supervisor parses that line to learn an ephemeral port.
#: Seconds a replica has to announce its port / bind, and the timeout of
#: the probe and reconcile that follow.
STARTUP_TIMEOUT_S = 30.0
#: Restart backoff of a crash-looping replica: the base doubles per
#: consecutive fast crash, capped at the max.
RESTART_BACKOFF_S = 0.5
RESTART_BACKOFF_MAX_S = 30.0
#: Consecutive fast crashes (death within ``STABLE_S`` of start) that
#: quarantine a replica: no automatic restarts until ``unquarantine``. A
#: replica up at least ``STABLE_S`` resets its crash streak.
QUARANTINE_AFTER = 5
STABLE_S = 5.0

_PORT_RE = re.compile(r"\bon\s+(\S+):(\d+)\s*$")


class _Replica:
    """Internal per-replica bookkeeping (one of proc/handle is set)."""

    def __init__(self, replica_id: str):
        self.replica_id = replica_id
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None
        self.drain: Optional[threading.Thread] = None  # stdout reader
        self.handle = None  # ServerHandle in thread mode
        self.registry = None  # ModelRegistry in thread mode
        self.tail: deque = deque(maxlen=50)  # last stdout lines (diagnostics)
        self.port_event = threading.Event()
        self.restarts = 0
        self.failed_starts = 0
        # Crash-loop containment (driven by check_and_restart).
        self.last_start_at = 0.0   # supervisor clock at last successful start
        self.not_before = 0.0      # backoff: no restart attempt before this
        self.crash_streak = 0      # consecutive deaths within stable_s
        self.quarantined = False


class ReplicaSupervisor:
    """Spawn, monitor, and restart N local model-server replicas.

    Parameters
    ----------
    model_path:
        Model file every replica serves at startup (saved by
        :meth:`KeyBin2Model.save`). Required in ``process`` mode; in
        ``thread`` mode a pre-loaded model object may be passed instead.
    n_replicas:
        Fleet size.
    mode:
        ``"process"`` (subprocess isolation) or ``"thread"`` (in-process,
        fast — tests).
    host:
        Bind address for every replica (loopback keeps admin ops open).
    extra_args:
        Additional ``python -m repro serve`` flags applied to every
        process-mode replica (e.g. ``["--admit-rate", "300"]``).
    model:
        Thread mode only: serve this fitted model object (skips the
        load from ``model_path``).
    journal:
        Optional :class:`~repro.fleet.journal.RolloutJournal`. When set,
        restarted replicas boot from (and are fingerprint-verified
        against) the journal's current ``artifact`` record — the fleet's
        source of truth — instead of the construction-time model path.
    clock:
        Injectable monotonic clock (deterministic backoff tests).

    Startup timeout, restart backoff and quarantine are the module
    constants.
    """

    def __init__(
        self,
        model_path: Optional[str] = None,
        n_replicas: int = 3,
        mode: str = "process",
        host: str = "127.0.0.1",
        extra_args: Sequence[str] = (),
        model=None,
        journal=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if mode not in ("process", "thread"):
            raise ValidationError("mode must be 'process' or 'thread'")
        if n_replicas < 1:
            raise ValidationError("n_replicas must be >= 1")
        if mode == "process" and model_path is None:
            raise ValidationError("process mode needs model_path")
        if mode == "thread" and model_path is None and model is None:
            raise ValidationError("thread mode needs model_path or model")
        self.model_path = None if model_path is None else str(model_path)
        self.mode = mode
        self.host = host
        self.extra_args = list(extra_args)
        self._model = model
        self.startup_timeout = STARTUP_TIMEOUT_S
        self.journal = journal
        self.restart_backoff_s = RESTART_BACKOFF_S
        self.restart_backoff_max_s = RESTART_BACKOFF_MAX_S
        self.quarantine_after = QUARANTINE_AFTER
        self.stable_s = STABLE_S
        self._clock = clock
        self._replicas: Dict[str, _Replica] = {
            f"r{i}": _Replica(f"r{i}") for i in range(n_replicas)
        }
        reg = default_registry()
        self._m_restarts = reg.counter(
            "fleet_replica_restarts_total",
            "Replica restart attempts by the supervisor, by replica and "
            "outcome (ok / start_failed / reconcile_failed).",
            ("replica", "outcome"),
        )
        self._m_quarantined = reg.gauge(
            "fleet_replica_quarantined",
            "1 while the replica is quarantined after crash-looping "
            "(no automatic restarts), else 0.",
            ("replica",),
        )
        for rid in self._replicas:
            self._m_quarantined.labels(replica=rid).set(0)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> List[Tuple[str, str, int]]:
        """Start every replica; returns ``[(id, host, port), ...]``."""
        for replica in self._replicas.values():
            self._start_one(replica)
        return self.endpoints()

    def endpoints(self) -> List[Tuple[str, str, int]]:
        """Current ``(id, host, port)`` for every live-or-started replica."""
        out = []
        for rid in sorted(self._replicas, key=lambda r: int(r[1:])):
            rep = self._replicas[rid]
            if rep.port is not None:
                out.append((rid, rep.host, rep.port))
        return out

    def is_alive(self, replica_id: str) -> bool:
        rep = self._get(replica_id)
        if self.mode == "process":
            return rep.proc is not None and rep.proc.poll() is None
        return rep.handle is not None and rep.handle.thread.is_alive()

    def kill(self, replica_id: str) -> None:
        """Stop one replica abruptly (SIGKILL in process mode).

        ``proc.wait`` can time out even after SIGKILL (the child wedged
        in uninterruptible IO); that must not propagate out of teardown
        and leak the remaining replicas — escalate to a second
        kill/wait and give up quietly if the kernel still won't reap it.
        """
        rep = self._get(replica_id)
        if self.mode == "process":
            if rep.proc is not None and rep.proc.poll() is None:
                rep.proc.kill()
                try:
                    rep.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    rep.proc.kill()
                    try:
                        rep.proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        pass  # unreapable (D-state); poll() keeps watching
            if rep.drain is not None:
                # The reader closes the pipe at EOF; wait for it so a
                # killed replica leaves no open descriptor behind.
                rep.drain.join(timeout=10)
        elif rep.handle is not None:
            rep.handle.stop()
            rep.handle = None

    def restart(self, replica_id: str) -> Tuple[str, int]:
        """Restart one replica (fresh process/thread, fresh ephemeral port).

        The replica id is preserved; callers must tell the router about
        the new endpoint.
        The old endpoint is forgotten *before* the start attempt: a
        failed start must not leave :meth:`endpoints` advertising the
        dead port. With a journal attached, the restarted replica is
        reconciled to the journal's current artifact (probe → reload if
        strayed → fingerprint verify) before this returns — on a
        reconcile failure the replica is torn down and the error raised,
        so a stale replica is never announced to the router.
        """
        rep = self._get(replica_id)
        self.kill(replica_id)
        rep.port = None  # never advertise the dead endpoint
        try:
            self._start_one(rep)
        except Exception:
            rep.failed_starts += 1
            self._m_restarts.labels(replica=replica_id,
                                    outcome="start_failed").inc()
            raise
        rep.restarts += 1
        try:
            self._reconcile(rep)
        except ServeError:
            self._m_restarts.labels(replica=replica_id,
                                    outcome="reconcile_failed").inc()
            self.kill(replica_id)
            rep.port = None
            raise
        self._m_restarts.labels(replica=replica_id, outcome="ok").inc()
        return rep.host, rep.port

    def _reconcile(self, rep: _Replica) -> None:
        """Drive a freshly started replica to the journal's artifact."""
        if self.journal is None:
            return
        artifact = self.journal.current_artifact()
        if artifact is None:
            return
        from repro.fleet.journal import reconcile_replica

        reconcile_replica(
            rep.host, rep.port, artifact["path"], artifact.get("fingerprint"),
            timeout=self.startup_timeout,
        )

    def check_and_restart(self) -> List[str]:
        """Restart dead replicas (with backoff); returns the restarted ids.

        The monitor loop in ``python -m repro fleet`` calls this
        periodically so a crashed replica rejoins the fleet without
        operator action. A replica that keeps dying within ``stable_s``
        of its start backs off exponentially between attempts and is
        quarantined after ``quarantine_after`` consecutive fast crashes —
        a crash loop must not become a hot spawn loop. Start or
        reconcile failures are contained here (counted, backed off),
        never propagated into the monitor.
        """
        restarted = []
        now = self._clock()
        for rid in list(self._replicas):
            rep = self._replicas[rid]
            if self.is_alive(rid) or rep.quarantined:
                continue
            if now < rep.not_before:
                continue
            uptime = now - rep.last_start_at
            rep.crash_streak = (
                rep.crash_streak + 1 if uptime < self.stable_s else 1
            )
            if rep.crash_streak > self.quarantine_after:
                rep.quarantined = True
                self._m_quarantined.labels(replica=rid).set(1)
                continue
            rep.not_before = now + min(
                self.restart_backoff_max_s,
                self.restart_backoff_s * (2.0 ** (rep.crash_streak - 1)),
            )
            try:
                self.restart(rid)
            except ServeError:
                continue  # counted by restart(); retried after backoff
            restarted.append(rid)
        return restarted

    def quarantined(self) -> List[str]:
        """Replica ids currently quarantined (no automatic restarts)."""
        return sorted(r for r, rep in self._replicas.items()
                      if rep.quarantined)

    def unquarantine(self, replica_id: str) -> None:
        """Clear a quarantine so ``check_and_restart`` tries again."""
        rep = self._get(replica_id)
        rep.quarantined = False
        rep.crash_streak = 0
        rep.not_before = 0.0
        self._m_quarantined.labels(replica=replica_id).set(0)

    def stop(self) -> None:
        """Stop every replica (graceful in thread mode, SIGKILL process)."""
        for rid in list(self._replicas):
            try:
                self.kill(rid)
            except (ServeError, subprocess.TimeoutExpired):
                pass  # pragma: no cover - best-effort teardown

    def __enter__(self) -> "ReplicaSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def diagnostics(self, replica_id: str) -> str:
        """Last stdout lines of a process-mode replica (crash forensics)."""
        return "".join(self._get(replica_id).tail)

    # -- internals -----------------------------------------------------------

    def _get(self, replica_id: str) -> _Replica:
        try:
            return self._replicas[replica_id]
        except KeyError:
            raise ValidationError(f"unknown replica {replica_id!r}") from None

    def _start_one(self, rep: _Replica) -> None:
        if self.mode == "thread":
            self._start_thread(rep)
        else:
            self._start_process(rep)
        rep.last_start_at = self._clock()

    def _boot_model_path(self) -> Optional[str]:
        """The artifact a (re)started replica should serve.

        The journal's current ``artifact`` record wins over the
        construction-time path: after a completed rollout the original
        ``--model`` file is stale, and booting from it would rejoin the
        fleet split-brain.
        """
        if self.journal is not None:
            artifact = self.journal.current_artifact()
            if artifact is not None and artifact.get("path"):
                return str(artifact["path"])
        return self.model_path

    def _start_thread(self, rep: _Replica) -> None:
        from repro.core.model import KeyBin2Model
        from repro.serve.registry import ModelRegistry
        from repro.serve.server import serve_in_thread

        if self._model is None:
            self._model = KeyBin2Model.load(self.model_path)
        registry = ModelRegistry()
        registry.publish(self._model, tag=f"{rep.replica_id}-startup")
        rep.registry = registry
        rep.handle = serve_in_thread(
            registry, host=self.host, port=0
        )
        rep.host, rep.port = rep.handle.address

    def _start_process(self, rep: _Replica) -> None:
        # -u: the child announces its port on stdout, and a block-buffered
        # pipe would hold that line back past the startup timeout.
        cmd = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--model", self._boot_model_path(),
            "--host", self.host, "--port", "0",
            *self.extra_args,
        ]
        env = os.environ.copy()
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        rep.port = None
        rep.port_event = threading.Event()
        rep.tail = deque(maxlen=50)
        rep.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        rep.drain = threading.Thread(
            target=self._drain_stdout, args=(rep, rep.proc),
            name=f"fleet-{rep.replica_id}-stdout", daemon=True,
        )
        rep.drain.start()
        eof = rep.port_event.wait(self.startup_timeout)
        if rep.port is None:
            # The event also fires at stdout EOF, which a child that exits
            # early reaches long before the timeout.
            code = None
            if eof:
                try:
                    code = rep.proc.wait(timeout=self.startup_timeout)
                except subprocess.TimeoutExpired:
                    pass
            self.kill(rep.replica_id)
            if code is not None:
                raise ServeError(
                    f"replica {rep.replica_id} failed to announce a port: it "
                    f"exited with code {code} before announcing one; "
                    f"output:\n{self.diagnostics(rep.replica_id)}"
                )
            raise ServeError(
                f"replica {rep.replica_id} failed to announce a port within "
                f"{self.startup_timeout}s; output:\n{self.diagnostics(rep.replica_id)}"
            )
        rep.host = self.host
        # One verified healthz round trip before the replica counts as
        # started — the port announcement alone proves a bind, not a
        # working serve loop.
        probe(rep.host, rep.port, timeout=self.startup_timeout)

    def _drain_stdout(self, rep: _Replica, proc: subprocess.Popen) -> None:
        # Keeps the pipe from filling (which would wedge the child) and
        # captures a diagnostic tail. Runs until the child's stdout EOFs,
        # then closes the pipe.
        try:
            for line in proc.stdout:
                rep.tail.append(line)
                if rep.port is None:
                    match = _PORT_RE.search(line)
                    if match:
                        rep.port = int(match.group(2))
                        rep.port_event.set()
        finally:
            proc.stdout.close()
            rep.port_event.set()  # EOF: unblock a waiting starter

"""Process-backed SPMD executor.

Gives each rank a real OS process (its own address space and GIL), which is
the honest analogue of the paper's MPI deployment on a single node. Ranks
communicate through :class:`multiprocessing.Queue` mailboxes; small payloads
are pickled, and top-level numpy arrays at or above ``shm_threshold`` bytes
travel zero-copy through POSIX shared memory (:mod:`repro.comm.shm`) — the
queue then carries only a ~100-byte descriptor instead of the data.

The SPMD function and its arguments must be picklable (i.e. defined at
module top level) — the same constraint ``mpiexec`` imposes by construction.

Failure handling: a rank that raises sends a failure sentinel to every peer
(so blocked receives abort instead of hanging) and reports the traceback to
the parent. A rank that dies without reporting (``os._exit``, SIGKILL,
segfault, OOM) is detected by the parent's fast poll on the result queue —
the parent then *fans out the failure sentinel on the dead rank's behalf*,
so peers blocked mid-collective abort within the poll interval instead of
hanging until their receive timeout. Failures either raise
:class:`~repro.errors.RankFailedError` carrying the first failing rank's id
and traceback, or with ``return_exceptions=True`` land in the failed ranks'
result slots while survivors' results come back intact.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence

from repro.comm.mailbox import FAILURE_TAG, MailboxComm
from repro.comm.shm import DEFAULT_SHM_THRESHOLD, ShmArrayRef, unlink_ref
from repro.errors import CommError, RankFailedError

__all__ = ["run_spmd_processes"]

#: Parent-side poll interval for the result queue. Bounds how long peers of
#: a silently-dead rank stay blocked before the parent's sentinel fan-out
#: wakes them.
_POLL_INTERVAL = 0.25
#: How rank processes start: forked, so they inherit the parent's modules.
START_METHOD = "fork"


def _worker_main(
    rank: int,
    size: int,
    inboxes: Sequence[Any],
    result_queue: Any,
    fn: Callable[..., Any],
    args: Sequence[Any],
    timeout: Optional[float],
    faults: Optional[Any],
    suspicion_timeout: Optional[float] = None,
    shm_threshold: Optional[int] = None,
) -> None:
    injector = None
    if faults is not None:
        from repro.comm.faults import FaultInjector

        injector = FaultInjector(faults, rank)
    comm = MailboxComm(rank, size, inboxes, timeout=timeout, injector=injector,
                       suspicion_timeout=suspicion_timeout,
                       shm_threshold=shm_threshold)
    try:
        try:
            value = fn(comm, *args)
        finally:
            if shm_threshold is not None:
                # Reclaim segments behind messages this rank never received
                # (peers may have kept sending after our program finished
                # or died). Unreceived sends *to dead peers* are swept by
                # the parent's teardown drain.
                comm.drain_shm_refs()
    except BaseException as exc:  # noqa: BLE001
        comm.announce_failure(f"{type(exc).__name__}: {exc}")
        result_queue.put(("error", rank, f"{type(exc).__name__}: {exc}",
                          traceback.format_exc()))
        return
    result_queue.put(("ok", rank, value, comm.traffic.snapshot()))


def _drain_shm_leftovers(inboxes: Sequence[Any]) -> int:
    """Unlink shm segments referenced by messages nobody will ever receive."""
    reclaimed = 0
    for q in inboxes:
        while True:
            try:
                _src, _tag, payload = q.get(timeout=0.01)
            except Exception:
                break
            if isinstance(payload, ShmArrayRef) and unlink_ref(payload):
                reclaimed += 1
    return reclaimed


def run_spmd_processes(
    fn: Callable[..., Any],
    size: int,
    args: Sequence[Any] = (),
    timeout: Optional[float] = 300.0,
    faults: Optional[Any] = None,
    return_exceptions: bool = False,
    suspicion_timeout: Optional[float] = None,
) -> List[Any]:
    """Execute ``fn(comm, *args)`` on ``size`` process ranks.

    Returns per-rank return values in rank order. Return values must be
    picklable. ``timeout`` bounds both each rank's receives and how long
    the parent waits between result arrivals. ``suspicion_timeout``
    enables slow≠dead probing in each rank's communicator. Top-level
    ndarray payloads of at least :data:`~repro.comm.shm.DEFAULT_SHM_THRESHOLD`
    bytes travel zero-copy through POSIX shared memory.
    """
    shm_threshold = DEFAULT_SHM_THRESHOLD
    ctx = mp.get_context(START_METHOD)
    inboxes = [ctx.Queue() for _ in range(size)]
    result_queue = ctx.Queue()

    procs = [
        ctx.Process(
            target=_worker_main,
            args=(rank, size, inboxes, result_queue, fn, args, timeout, faults,
                  suspicion_timeout, shm_threshold),
            name=f"spmd-rank-{rank}",
        )
        for rank in range(size)
    ]
    for p in procs:
        p.start()

    results: List[Any] = [None] * size
    errors: List[tuple[int, str, str]] = []   # chronological arrival order
    reported: set = set()
    received = 0
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while received < size:
            try:
                kind, rank, payload, extra = result_queue.get(
                    timeout=_POLL_INTERVAL
                )
            except Exception as exc:
                # Fast path for silent deaths: a nonzero exit code with no
                # report means the rank can never report. Announce its
                # failure to every inbox on its behalf so blocked peers
                # abort now rather than at their receive timeout.
                for p in procs:
                    rank = int(p.name.rsplit("-", 1)[-1])
                    if rank in reported or p.is_alive():
                        continue
                    if p.exitcode in (0, None):
                        continue  # exit 0: its result is in flight
                    message = (
                        f"process for rank {rank} exited with code "
                        f"{p.exitcode} without reporting"
                    )
                    for q in inboxes:
                        try:
                            q.put((rank, FAILURE_TAG, message))
                        except Exception:  # pragma: no cover - torn down
                            pass
                    errors.append((rank, f"RankDied: {message}", ""))
                    reported.add(rank)
                    received += 1
                    deadline = (
                        None if timeout is None
                        else time.monotonic() + timeout
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise CommError(
                        f"timed out after {timeout}s waiting for SPMD results"
                    ) from exc
                continue
            received += 1
            reported.add(rank)
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            if kind == "ok":
                results[rank] = payload
            else:
                errors.append((rank, payload, extra))
    finally:
        for p in procs:
            p.join(timeout=10)
        for p in procs:
            if p.is_alive():  # pragma: no cover - stuck rank
                p.terminate()
                p.join()
        if shm_threshold is not None:
            # Dead or early-exited ranks leave undelivered messages in
            # their inboxes; unlink any shm segments behind them so the
            # run leaves /dev/shm exactly as it found it.
            _drain_shm_leftovers(inboxes)
        for q in inboxes:
            q.close()
            q.cancel_join_thread()
        result_queue.close()
        result_queue.cancel_join_thread()

    if errors:
        if return_exceptions:
            for rank, message, tb in errors:
                results[rank] = RankFailedError(
                    f"SPMD rank {rank} raised {message}\n{tb}", rank=rank
                )
            return results
        # Prefer the chronologically-first root-cause failure over cascaded
        # RankFailedError reports from peers that merely noticed the death.
        originals = [e for e in errors if not e[1].startswith("RankFailedError")]
        rank, message, tb = (originals or errors)[0]
        raise RankFailedError(f"SPMD rank {rank} raised {message}\n{tb}", rank=rank)
    return results

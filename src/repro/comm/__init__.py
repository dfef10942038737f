"""SPMD message-passing substrate (MPI stand-in).

The paper's implementation uses mpi4py on a 32-node InfiniBand cluster.
KeyBin2 itself only needs a rank/size abstraction with a handful of
collectives over small numpy buffers, so this package provides:

- :class:`~repro.comm.base.Communicator` — the abstract contract,
- a serial (size-1) communicator,
- a thread-backed SPMD executor (fast, used by tests),
- a process-backed SPMD executor (true address-space isolation, used to
  demonstrate the distributed claims),
- ring-topology collectives (the paper notes KeyBin2 also works on a ring),
- per-rank traffic accounting so the O(2·K·N_rp·B) communication claim can
  be measured rather than asserted,
- a zero-copy shared-memory transport for large array payloads between
  process ranks (:mod:`repro.comm.shm`), and
- an optional mpi4py adapter so the same SPMD program runs unmodified on a
  real cluster.
"""

from __future__ import annotations

from repro.comm.base import Communicator, ReduceOp
from repro.comm.serial import SerialComm
from repro.comm.mailbox import MailboxComm
from repro.comm.membership import agree_on_survivors, agreement_timeout_for
from repro.comm.shm import (
    DEFAULT_SHM_THRESHOLD,
    ShmArrayRef,
    open_array,
    share_array,
    unlink_ref,
)
from repro.comm.traffic import TrafficStats
from repro.comm.spmd import run_spmd, spmd_available_executors
from repro.comm.faults import (
    DelayMessage,
    DropMessage,
    FaultInjector,
    FaultPlan,
    KillRank,
    SlowRank,
    maybe_inject,
)
from repro.comm.ring import (
    ring_allreduce,
    ring_reduce_scatter,
    ring_allgather,
)

__all__ = [
    "Communicator",
    "ReduceOp",
    "SerialComm",
    "MailboxComm",
    "DEFAULT_SHM_THRESHOLD",
    "ShmArrayRef",
    "share_array",
    "open_array",
    "unlink_ref",
    "TrafficStats",
    "run_spmd",
    "spmd_available_executors",
    "agree_on_survivors",
    "agreement_timeout_for",
    "FaultPlan",
    "FaultInjector",
    "KillRank",
    "DropMessage",
    "DelayMessage",
    "SlowRank",
    "maybe_inject",
    "ring_allreduce",
    "ring_reduce_scatter",
    "ring_allgather",
]

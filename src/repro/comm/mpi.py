"""Optional mpi4py adapter.

When the package is run under ``mpiexec`` with mpi4py installed, wrap
``MPI.COMM_WORLD`` so every SPMD program in this repository runs unchanged
on a real cluster::

    # mpiexec -n 16 python my_program.py
    from repro.comm.mpi import world_communicator
    comm = world_communicator()
    ...

This module imports lazily; importing :mod:`repro.comm` never requires
mpi4py.
"""

from __future__ import annotations

from typing import Any

from repro.comm.base import Communicator
from repro.errors import CommError

__all__ = ["MPIComm", "world_communicator"]


class MPIComm(Communicator):
    """Adapter exposing an mpi4py communicator through our ABC.

    Collectives delegate to mpi4py's (pickle-based, lowercase) versions,
    which are tree-structured and faster than the linear defaults. Traffic
    accounting is best-effort for point-to-point only, since MPI internals
    are opaque.
    """

    def __init__(self, mpi_comm: Any):
        self._comm = mpi_comm
        super().__init__(rank=mpi_comm.Get_rank(), size=mpi_comm.Get_size())

    def _send_impl(self, obj: Any, dest: int, tag: int) -> None:
        # mpi4py tags must be non-negative; shift our signed control tags.
        self._comm.send(obj, dest=dest, tag=tag + 1024)

    def _recv_impl(self, source: int, tag: int) -> Any:
        return self._comm.recv(source=source, tag=tag + 1024)

    def barrier(self) -> None:
        self._comm.Barrier()

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        return self._comm.bcast(obj, root=root)

    def scatter(self, objs=None, root: int = 0) -> Any:
        return self._comm.scatter(objs, root=root)

    def gather(self, obj: Any, root: int = 0):
        return self._comm.gather(obj, root=root)

    def allgather(self, obj: Any):
        return self._comm.allgather(obj)


def world_communicator() -> MPIComm:
    """Wrap ``MPI.COMM_WORLD``; raises :class:`CommError` without mpi4py."""
    try:
        from mpi4py import MPI
    except ImportError as exc:
        raise CommError(
            "mpi4py is not installed; install repro[mpi] and run under mpiexec"
        ) from exc
    return MPIComm(MPI.COMM_WORLD)

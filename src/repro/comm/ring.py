"""Ring-topology collectives.

The paper notes (§3, step 3) that histogram consolidation "does not
necessarily have to be made to a central authority — the algorithm works as
well for a ring topology." These helpers implement the classic
bandwidth-optimal ring algorithms on top of any
:class:`~repro.comm.base.Communicator`:

- :func:`ring_reduce_scatter` — each rank ends with one reduced chunk,
- :func:`ring_allgather` — chunks circulate until every rank has all,
- :func:`ring_allreduce` — the composition of the two (the pattern
  popularized by Baidu/Horovod).

All operate on 1-D numpy arrays; each rank must pass an equal-length buffer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm.base import Communicator, ReduceOp
from repro.errors import CommError
from repro.util.chunking import chunk_slices

__all__ = ["ring_reduce_scatter", "ring_allgather", "ring_allreduce"]

_RING_TAG = -201


def _check_buffer(comm: Communicator, buf: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(buf)
    if arr.ndim != 1:
        raise CommError(f"ring collectives need 1-D buffers, got ndim={arr.ndim}")
    return arr


def ring_reduce_scatter(
    comm: Communicator,
    buf: np.ndarray,
    op: ReduceOp = ReduceOp.SUM,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Ring reduce-scatter.

    After ``size - 1`` neighbour exchanges, this rank holds the fully
    reduced values for its own chunk of the buffer. Returns
    ``(chunk, (start, stop))`` where the slice locates the chunk in the
    global buffer.
    """
    arr = _check_buffer(comm, buf).copy()
    size, rank = comm.size, comm.rank
    slices = chunk_slices(arr.shape[0], size)
    if size == 1:
        return arr, slices[0]
    for step in range(size - 1):
        send_chunk_idx = (rank - step) % size
        recv_chunk_idx = (rank - step - 1) % size
        s0, s1 = slices[send_chunk_idx]
        incoming = comm.sendrecv(
            arr[s0:s1].copy(),
            dest=(rank + 1) % size,
            source=(rank - 1) % size,
            tag=_RING_TAG + 1 + step,
        )
        r0, r1 = slices[recv_chunk_idx]
        arr[r0:r1] = op.combine(arr[r0:r1], incoming)
    own = (rank + 1) % size
    o0, o1 = slices[own]
    return arr[o0:o1].copy(), (o0, o1)


def ring_allgather(
    comm: Communicator,
    chunk: np.ndarray,
    total_length: int,
    chunk_index: Optional[int] = None,
) -> np.ndarray:
    """Ring all-gather of per-rank chunks into the full buffer.

    ``chunk_index`` names which canonical chunk (see
    :func:`repro.util.chunking.chunk_slices`) this rank holds; defaults to
    ``(rank + 1) % size``, the layout :func:`ring_reduce_scatter` leaves
    behind. An index (not a slice) is required because empty chunks make
    slices ambiguous.
    """
    size, rank = comm.size, comm.rank
    slices = chunk_slices(total_length, size)
    if chunk_index is None:
        chunk_index = (rank + 1) % size
    if not (0 <= chunk_index < size):
        raise CommError(f"chunk_index {chunk_index} out of range for {size} ranks")
    chunk = _check_buffer(comm, chunk)
    out = np.zeros(total_length, dtype=chunk.dtype)
    s0, s1 = slices[chunk_index]
    if (s1 - s0) != chunk.shape[0]:
        raise CommError(
            f"chunk length {chunk.shape[0]} does not match chunk {chunk_index} "
            f"slice {(s0, s1)}"
        )
    out[s0:s1] = chunk
    if size == 1:
        return out
    current = int(chunk_index)
    for step in range(size - 1):
        a, b = slices[current]
        incoming_idx = (current - 1) % size
        incoming = comm.sendrecv(
            out[a:b].copy(),
            dest=(rank + 1) % size,
            source=(rank - 1) % size,
            tag=_RING_TAG + 100 + step,
        )
        ia, ib = slices[incoming_idx]
        out[ia:ib] = incoming
        current = incoming_idx
    return out


def ring_allreduce(
    comm: Communicator,
    buf: np.ndarray,
    op: ReduceOp = ReduceOp.SUM,
) -> np.ndarray:
    """Bandwidth-optimal allreduce: reduce-scatter followed by all-gather.

    Equivalent to ``comm.allreduce`` on the same buffer, but every rank
    sends O(2·len) bytes total regardless of ``size`` — the property that
    makes ring consolidation of KeyBin2 histograms cheap.
    """
    arr = _check_buffer(comm, buf)
    chunk, _ = ring_reduce_scatter(comm, arr, op=op)
    # reduce-scatter leaves rank r holding canonical chunk (r + 1) % size.
    return ring_allgather(comm, chunk, arr.shape[0], (comm.rank + 1) % comm.size)

"""Ring-topology collectives."""

import numpy as np
import pytest

from repro.comm import ReduceOp, ring_allgather, ring_allreduce, run_spmd
from repro.comm.ring import _RING_TAG, ring_reduce_scatter
from repro.errors import CommError


def _run(fn, size, **kw):
    return run_spmd(fn, size, executor="thread", timeout=30, **kw)


def ring_pass(comm, obj):
    """Send ``obj`` to ``(rank + 1) % size`` and return what arrives here:
    one neighbour shift over ``sendrecv``."""
    size = comm.size
    if size == 1:
        return obj
    return comm.sendrecv(obj, dest=(comm.rank + 1) % size,
                         source=(comm.rank - 1) % size, tag=_RING_TAG)


class TestRingPass:
    def test_single_shift(self):
        def prog(comm):
            return ring_pass(comm, comm.rank)

        assert _run(prog, 4) == [3, 0, 1, 2]

    def test_shift_two(self):
        def prog(comm):
            return ring_pass(comm, ring_pass(comm, comm.rank))

        assert _run(prog, 4) == [2, 3, 0, 1]

    def test_size_one_identity(self):
        def prog(comm):
            return ring_pass(comm, "only")

        assert _run(prog, 1) == ["only"]


class TestRingAllreduce:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    def test_matches_naive_allreduce(self, size):
        def prog(comm):
            buf = np.arange(10, dtype=float) * (comm.rank + 1)
            ring = ring_allreduce(comm, buf)
            naive = comm.allreduce(buf)
            return bool(np.allclose(ring, naive))

        assert all(_run(prog, size))

    def test_max_op(self):
        def prog(comm):
            buf = np.full(6, float(comm.rank))
            return ring_allreduce(comm, buf, op=ReduceOp.MAX).tolist()

        size = 5
        assert _run(prog, size) == [[4.0] * 6] * size

    def test_buffer_shorter_than_ranks(self):
        # Edge case: fewer elements than ranks → some chunks are empty.
        def prog(comm):
            buf = np.array([1.0, 2.0])
            return ring_allreduce(comm, buf).tolist()

        size = 4
        assert _run(prog, size) == [[4.0, 8.0]] * size

    def test_rejects_2d(self):
        def prog(comm):
            return ring_allreduce(comm, np.zeros((2, 2)))

        with pytest.raises(Exception):
            _run(prog, 2)


class TestRingReduceScatterAllgather:
    def test_reduce_scatter_chunks_sum(self):
        def prog(comm):
            buf = np.arange(8, dtype=float)
            chunk, (a, b) = ring_reduce_scatter(comm, buf)
            expected = np.arange(8, dtype=float)[a:b] * comm.size
            return bool(np.allclose(chunk, expected))

        assert all(_run(prog, 4))

    def test_allgather_reassembles(self):
        def prog(comm):
            total_length = 12
            from repro.util.chunking import chunk_slices

            idx = (comm.rank + 1) % comm.size
            a, b = chunk_slices(total_length, comm.size)[idx]
            chunk = np.arange(a, b, dtype=float)
            full = ring_allgather(comm, chunk, total_length, idx)
            return bool(np.allclose(full, np.arange(total_length, dtype=float)))

        assert all(_run(prog, 3))

    def test_allgather_wrong_chunk_length(self):
        def prog(comm):
            return ring_allgather(comm, np.zeros(3), 12, 0)

        with pytest.raises(Exception):
            _run(prog, 2)

    def test_allgather_invalid_index(self):
        def prog(comm):
            return ring_allgather(comm, np.zeros(6), 12, 99)

        with pytest.raises(Exception):
            _run(prog, 2)

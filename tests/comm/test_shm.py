"""Tests for the zero-copy shared-memory array transport."""

import os

import numpy as np
import pytest

import repro.comm.process as process_mod
from repro.comm.process import run_spmd_processes
from repro.comm.shm import (
    DEFAULT_SHM_THRESHOLD,
    ShmArrayRef,
    open_array,
    share_array,
    shareable,
    unlink_ref,
)
from repro.errors import RankFailedError

SHM_DIR = "/dev/shm"


def _shm_names():
    """Snapshot of python shared-memory segment names currently backing."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-tmpfs platform
        return set()
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


class TestShareOpenRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.arange(7, dtype=np.int32),
            np.zeros((3, 0, 5)),  # zero-size: segment size clamps to 1 byte
            np.array(3.5),  # zero-dim scalar array
        ],
        ids=["2d-f8", "1d-i4", "empty", "scalar"],
    )
    def test_round_trip_preserves_value_shape_dtype(self, arr):
        ref = share_array(arr)
        out = open_array(ref)
        assert out.shape == arr.shape
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)

    def test_ref_is_tiny_and_endianness_explicit(self):
        ref = share_array(np.ones((1000, 1000)))
        assert isinstance(ref, ShmArrayRef)
        # dtype.str spelling leads with an explicit byte order, never "=".
        assert ref.dtype[0] in "<>|"
        import pickle

        assert len(pickle.dumps(ref)) < 200
        unlink_ref(ref)

    def test_non_contiguous_source_copied_correctly(self):
        base = np.arange(100, dtype=np.float64).reshape(10, 10)
        sliced = base[::2, ::3]  # strided view
        out = open_array(share_array(sliced))
        assert np.array_equal(out, sliced)

    def test_receiver_unlinks_immediately(self):
        before = _shm_names()
        ref = share_array(np.ones(64))
        created = _shm_names() - before
        assert len(created) == 1  # segment exists while in flight
        open_array(ref)
        # The name is gone the moment the receiver attaches — a crash
        # after this point cannot leak the segment.
        assert not (_shm_names() - before)

    def test_large_array_integrity(self, rng):
        arr = rng.standard_normal((512, 257))
        out = open_array(share_array(arr))
        assert np.array_equal(out, arr)
        # Zero-copy: mutating the mapped array must not touch the source.
        out[0, 0] += 1.0
        assert out[0, 0] != arr[0, 0]


class TestShareable:
    def test_large_plain_array(self):
        assert shareable(np.zeros(1 << 14), threshold=1 << 16)

    def test_below_threshold(self):
        assert not shareable(np.zeros(10), threshold=1 << 16)

    def test_at_threshold_boundary(self):
        arr = np.zeros(DEFAULT_SHM_THRESHOLD, dtype=np.uint8)
        assert shareable(arr, DEFAULT_SHM_THRESHOLD)
        assert not shareable(arr[:-1], DEFAULT_SHM_THRESHOLD)

    def test_non_array_payloads(self):
        assert not shareable([0.0] * 100_000, threshold=1)
        assert not shareable("x" * 100_000, threshold=1)
        assert not shareable({"a": np.zeros(100_000)}, threshold=1)

    def test_object_dtype_refused(self):
        # Object arrays hold pointers; their bytes are meaningless in
        # another address space.
        arr = np.array([{"a": 1}, {"b": 2}], dtype=object)
        assert not shareable(arr, threshold=1)


class TestUnlinkRef:
    def test_reclaims_unreceived_segment(self):
        before = _shm_names()
        ref = share_array(np.ones(128))
        assert unlink_ref(ref) is True
        assert not (_shm_names() - before)

    def test_already_received_returns_false(self):
        ref = share_array(np.ones(128))
        open_array(ref)
        assert unlink_ref(ref) is False

    def test_double_sweep_returns_false(self):
        ref = share_array(np.ones(128))
        assert unlink_ref(ref) is True
        assert unlink_ref(ref) is False


# SPMD programs must be module-level for the process executor.

def _ring_exchange_prog(comm, n):
    """Each rank sends a large deterministic array to the next rank."""
    rng = np.random.default_rng(1000 + comm.rank)
    payload = rng.standard_normal((n,))
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    got = comm.sendrecv(payload, dest=right, source=left, tag=5)
    expected = np.random.default_rng(1000 + left).standard_normal((n,))
    return bool(np.array_equal(got, expected))


def _dead_receiver_prog(comm, n):
    """Rank 0 parks a large array in shm for a rank that dies first."""
    if comm.rank == 1:
        raise ValueError("receiver died before draining its inbox")
    if comm.rank == 0:
        comm.send(np.ones(n), dest=1, tag=9)
    return comm.rank


@pytest.fixture
def shm_threshold(monkeypatch):
    """Byte floor of the shm path in the process ranks started next."""
    def set_threshold(nbytes):
        monkeypatch.setattr(process_mod, "DEFAULT_SHM_THRESHOLD", nbytes)
    return set_threshold


class TestSpmdIntegration:
    def test_large_arrays_cross_process_ranks_intact(self, shm_threshold):
        before = _shm_names()
        shm_threshold(1 << 10)
        results = run_spmd_processes(
            _ring_exchange_prog, size=3, args=(20_000,), timeout=60,
        )
        assert results == [True, True, True]
        assert not (_shm_names() - before)  # nothing leaked

    def test_small_threshold_none_disables_shm_path(self, shm_threshold):
        shm_threshold(None)
        results = run_spmd_processes(
            _ring_exchange_prog, size=2, args=(4_000,), timeout=60,
        )
        assert results == [True, True]

    def test_rank_failure_leaves_no_leaked_segments(self, shm_threshold):
        before = _shm_names()
        shm_threshold(1 << 10)
        with pytest.raises(RankFailedError) as exc:
            run_spmd_processes(
                _dead_receiver_prog, size=2, args=(50_000,), timeout=60,
            )
        assert exc.value.rank == 1
        # The dead rank never received rank 0's array; the teardown sweep
        # must have unlinked the orphaned segment.
        assert not (_shm_names() - before)

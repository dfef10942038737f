"""Consolidation-correctness tests for the delta-merge protocol.

These pin the invariants the distributed layer promises (and that the
pre-delta merge violated after the first round): mass conservation at
every consolidation, idempotent re-merges, label invariance to the
consolidation cadence, exact agreement with a serial pooled run, and
O(histogram) wire traffic per round.
"""

import numpy as np
import pytest

from repro.comm.spmd import run_spmd
from repro.core.streaming import StreamingKeyBin2
from repro.errors import RankFailedError, ValidationError
from repro.insitu.distributed import (
    consolidate_streaming_state,
    distributed_insitu_spmd,
    run_distributed_insitu,
)
from repro.proteins.encode import encode_frames
from repro.proteins.trajectory import Trajectory, TrajectorySimulator

N_RESIDUES = 30
N_FRAMES = 240
CHUNK = 40           # 6 chunks per rank
EVERY = 2            # -> 3 consolidation rounds
KEYBIN_PARAMS = {"feature_range": (0.0, 6.0), "candidate_depths": (5, 6, 7, 8)}


def _shared_library_trajectories(n, n_frames=N_FRAMES, base_seed=50):
    proto = TrajectorySimulator(N_RESIDUES, n_frames, 4, seed=base_seed)
    targets = proto.simulate().phase_targets
    return [
        TrajectorySimulator(
            N_RESIDUES, n_frames, 4, phase_targets=targets, seed=base_seed + 1 + i
        ).simulate(name=f"traj{i}")
        for i in range(n)
    ]


def _serial_pooled(trajs, seed=0):
    """Single StreamingKeyBin2 fed every rank's frames (the ground truth the
    distributed merge must reproduce exactly)."""
    skb = StreamingKeyBin2(seed=seed, **KEYBIN_PARAMS)
    for t in trajs:
        skb.partial_fit(encode_frames(t.angles))
    skb.refresh()
    return skb


def _mass_program(comm, feature_blocks, chunk, every):
    """SPMD program recording (points seen, per-state masses) after every
    consolidation round."""
    feats = feature_blocks[comm.rank]
    skb = StreamingKeyBin2(seed=0, **KEYBIN_PARAMS)
    records = []
    n_chunks = -(-feats.shape[0] // chunk)
    for ci in range(n_chunks):
        skb.partial_fit(feats[ci * chunk : (ci + 1) * chunk])
        if (ci + 1) % every == 0 or ci + 1 == n_chunks:
            consolidate_streaming_state(comm, skb)
            masses = [
                (int(st.hist.sum()), st.hist.shape[0], int(sum(
                    st.keys.to_arrays()[1]
                )))
                for st in skb._states
            ]
            records.append((skb.n_seen_, masses))
    return records


def _key_dict(counter):
    keys, counts = counter.to_arrays()
    return {bytes(k): int(c) for k, c in zip(keys, counts)}


def _double_merge_program(comm, feature_blocks):
    """Merge twice with no data in between; the second merge must change
    nothing (idempotence — exactly what re-reducing merged totals broke)."""
    skb = StreamingKeyBin2(seed=0, **KEYBIN_PARAMS)
    skb.partial_fit(feature_blocks[comm.rank])
    consolidate_streaming_state(comm, skb)
    before = (
        skb.n_seen_,
        [st.hist.copy() for st in skb._states],
        [_key_dict(st.keys) for st in skb._states],
    )
    consolidate_streaming_state(comm, skb)
    after = (
        skb.n_seen_,
        [st.hist.copy() for st in skb._states],
        [_key_dict(st.keys) for st in skb._states],
    )
    return before, after


def _zero_frame_program(comm, trajs):
    return distributed_insitu_spmd(comm, trajs[comm.rank], chunk_size=CHUNK)


class TestMassConservation:
    def test_mass_conserved_every_round(self):
        """After every merge, histogram mass must equal points-seen × dims
        and the key-counter mass must equal points-seen — at k ≥ 3 rounds
        on R = 3 ranks (the regime the pre-delta merge corrupted)."""
        trajs = _shared_library_trajectories(3)
        blocks = [encode_frames(t.angles) for t in trajs]
        per_rank = run_spmd(
            _mass_program, 3, executor="thread", args=(blocks, CHUNK, EVERY)
        )
        n_rounds = len(per_rank[0])
        assert n_rounds >= 3
        for records in per_rank:
            for round_idx, (seen, masses) in enumerate(records):
                expected_seen = 3 * min((round_idx + 1) * EVERY * CHUNK, N_FRAMES)
                assert seen == expected_seen
                for hist_mass, n_dims, key_mass in masses:
                    assert hist_mass == seen * n_dims
                    assert key_mass == seen

    def test_remerge_without_new_data_is_noop(self):
        trajs = _shared_library_trajectories(2)
        blocks = [encode_frames(t.angles) for t in trajs]
        per_rank = run_spmd(_double_merge_program, 2, executor="thread",
                            args=(blocks,))
        for before, after in per_rank:
            assert before[0] == after[0]
            for h_before, h_after in zip(before[1], after[1]):
                assert np.array_equal(h_before, h_after)
            assert before[2] == after[2]


class TestCadenceInvariance:
    @pytest.fixture(scope="class")
    def trajs(self):
        return _shared_library_trajectories(3)

    @pytest.fixture(scope="class")
    def serial(self, trajs):
        return _serial_pooled(trajs)

    @pytest.mark.parametrize("every", [1, 2, 100])
    def test_labels_match_serial_pooled(self, trajs, serial, every):
        """R = 3 ranks, up to 6 consolidation rounds: labels and cluster
        count must match the single-rank pooled run exactly, whatever the
        cadence (100 ⇒ one final merge only)."""
        results = run_distributed_insitu(
            trajs, chunk_size=CHUNK, consolidate_every=every, seed=0
        )
        assert all(r.n_clusters == serial.n_clusters_ for r in results)
        for traj, res in zip(trajs, results):
            expected = serial.predict(encode_frames(traj.angles))
            assert np.array_equal(res.labels, expected)

    def test_ring_reduction_matches_linear(self, trajs, serial):
        results = run_distributed_insitu(
            trajs, chunk_size=CHUNK, consolidate_every=EVERY, seed=0,
            reduce_algo="ring",
        )
        assert all(r.n_clusters == serial.n_clusters_ for r in results)
        for traj, res in zip(trajs, results):
            expected = serial.predict(encode_frames(traj.angles))
            assert np.array_equal(res.labels, expected)

    def test_bad_reduce_algo_rejected(self, trajs):
        with pytest.raises((ValidationError, RankFailedError)):
            run_distributed_insitu(
                trajs[:2], chunk_size=CHUNK, seed=0, reduce_algo="butterfly"
            )


class TestTrafficBound:
    def test_bytes_scale_with_histograms_times_rounds(self):
        """Per-rank traffic must stay O(histogram buffer × rounds) — deltas
        on the wire, never the raw frames and never a growing merged table."""
        trajs = _shared_library_trajectories(3)
        # Histogram wire size, measured on an identically configured model.
        probe = StreamingKeyBin2(seed=0, **KEYBIN_PARAMS)
        probe.partial_fit(encode_frames(trajs[0].angles)[:CHUNK])
        hist_nbytes = sum(st.hist.nbytes for st in probe._states)
        n_rounds = -(-N_FRAMES // CHUNK)  # consolidate_every=1
        results = run_distributed_insitu(
            trajs, chunk_size=CHUNK, consolidate_every=1, seed=0
        )
        # Linear collectives make the root fan out size-1 copies, so the
        # per-rank constant is bounded by the rank count; key deltas and
        # control messages ride in the same O(histogram) envelope.
        bound = 2 * len(trajs) * hist_nbytes * n_rounds
        for res in results:
            assert res.traffic["bytes_sent"] < bound

    def test_ring_keeps_nonroot_traffic_flat(self):
        """The ring path bounds every rank's histogram traffic at O(2·len)
        per round, so the busiest rank sends no more than under the linear
        root-fan-out reduction."""
        trajs = _shared_library_trajectories(3)
        linear = run_distributed_insitu(
            trajs, chunk_size=CHUNK, consolidate_every=EVERY, seed=0
        )
        ring = run_distributed_insitu(
            trajs, chunk_size=CHUNK, consolidate_every=EVERY, seed=0,
            reduce_algo="ring",
        )
        assert (
            max(r.traffic["bytes_sent"] for r in ring)
            <= max(r.traffic["bytes_sent"] for r in linear)
        )


class TestZeroFrameFailFast:
    def _empty_trajectory(self):
        return Trajectory(
            angles=np.empty((0, N_RESIDUES, 3)),
            phase_ids=np.empty(0, dtype=np.int64),
            in_transition=np.zeros(0, dtype=bool),
            phase_targets=np.zeros((4, N_RESIDUES), dtype=np.int8),
            name="empty",
        )

    def test_front_end_rejects_empty_trajectory_upfront(self):
        trajs = _shared_library_trajectories(2)
        with pytest.raises(ValidationError, match="no frames"):
            run_distributed_insitu([trajs[0], self._empty_trajectory()])

    def test_spmd_zero_frame_raises_on_all_ranks(self):
        """Every rank must raise immediately — peers must not sit in the
        allreduce until the deadlock timeout."""
        trajs = [self._empty_trajectory()] + _shared_library_trajectories(2)
        with pytest.raises(RankFailedError, match="no frames"):
            run_spmd(
                _zero_frame_program, 3, executor="thread", args=(trajs,),
                timeout=60.0,
            )


class TestMultiRoundExecutors:
    """The CI multi-round configuration: small chunks, consolidate_every=1,
    on both in-process executors."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_multi_round_matches_serial(self, executor):
        trajs = _shared_library_trajectories(2)
        serial = _serial_pooled(trajs)
        results = run_distributed_insitu(
            trajs, chunk_size=CHUNK, consolidate_every=1, seed=0,
            executor=executor,
        )
        assert all(r.n_clusters == serial.n_clusters_ for r in results)
        for traj, res in zip(trajs, results):
            expected = serial.predict(encode_frames(traj.angles))
            assert np.array_equal(res.labels, expected)

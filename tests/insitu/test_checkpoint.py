"""Checkpoint/restore: exact round trips, corruption detection, resume."""

import pickle
import struct

import numpy as np
import pytest

from repro.core.streaming import KeyCounter, StreamingKeyBin2
from repro.errors import CheckpointError, ValidationError
from repro.insitu.checkpoint import CheckpointManager, common_checkpoint_round
from repro.insitu.distributed import run_distributed_insitu
from repro.proteins.trajectory import TrajectorySimulator
from tests.core.test_streaming_keys import _assert_same_state
from tests.data.streams import RangeGrowthStream
from tests.kernels.oracle import fold_rows

PARAMS = {"feature_range": (0.0, 1.0), "candidate_depths": (4, 5)}


def _fitted(rng, n=120, seed=7):
    skb = StreamingKeyBin2(seed=seed, **PARAMS)
    skb.partial_fit(rng.random((n, 3)))
    return skb


def _stored(path):
    """(format version, payload) of a checkpoint file."""
    raw = path.read_bytes()
    off = len(StreamingKeyBin2._CKPT_MAGIC)
    (version,) = struct.unpack_from("<I", raw, off)
    return version, pickle.loads(raw[off + 44:])


class TestStateRoundTrip:
    def test_restored_run_is_bit_identical(self, rng, tmp_path):
        """Continue-from-checkpoint must equal the uninterrupted run."""
        data = rng.random((200, 3))
        probe = rng.random((50, 3))

        straight = StreamingKeyBin2(seed=3, **PARAMS)
        straight.partial_fit(data[:120])
        straight.partial_fit(data[120:])
        straight.refresh()

        interrupted = StreamingKeyBin2(seed=3, **PARAMS)
        interrupted.partial_fit(data[:120])
        path = tmp_path / "mid.kb2"
        interrupted.save_state(path, meta={"chunks_done": 3})
        restored = StreamingKeyBin2.load_state(path)
        restored.partial_fit(data[120:])
        restored.refresh()

        assert restored.restored_meta_["chunks_done"] == 3
        assert restored.n_clusters_ == straight.n_clusters_
        np.testing.assert_array_equal(
            restored.predict(probe), straight.predict(probe)
        )

    def test_counters_and_ledger_survive(self, rng, tmp_path):
        skb = _fitted(rng)
        path = tmp_path / "c.kb2"
        skb.save_state(path)
        back = StreamingKeyBin2.load_state(path)
        assert back.n_seen_ == skb.n_seen_
        assert back.n_seen_delta_ == skb.n_seen_delta_
        assert back.n_own_ == skb.n_own_
        for a, b in zip(skb._states, back._states):
            for d in a.depths:
                np.testing.assert_array_equal(a.hist[d], b.hist[d])
                np.testing.assert_array_equal(a.hist_delta[d], b.hist_delta[d])
                np.testing.assert_array_equal(a.hist_local[d], b.hist_local[d])

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_save_load_save_is_byte_identical(self, tmp_path, adaptive):
        """A restored instance writes the checkpoint it was restored from."""
        skb = StreamingKeyBin2(seed=5, n_projections=4,
                               candidate_depths=(4, 5), adaptive=adaptive)
        for x, _ in RangeGrowthStream(n_batches=3, batch_size=300, n_dims=6,
                                      growth=2.0, seed=4):
            skb.partial_fit(x)
        rebins = sum(st.rebin_count for st in skb._states)
        assert (rebins > 0) == adaptive  # adaptive: base range != grid range
        first, second = tmp_path / "a.kb2", tmp_path / "b.kb2"
        skb.save_state(first)
        StreamingKeyBin2.load_state(first).save_state(second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("fused", [False, True])
    def test_checkpoint_naming_an_ingest_path_still_loads(
        self, tmp_path, monkeypatch, fused
    ):
        """Version-2 checkpoints written while ``fused`` was an option
        carry it in their config; they load, continue exactly, and a
        re-save drops the entry without a format change."""
        data = np.random.default_rng(11).random((300, 3))
        straight = StreamingKeyBin2(seed=3, **PARAMS)
        straight.partial_fit(data[:150])
        straight.partial_fit(data[150:])
        straight.refresh()

        state_dict = StreamingKeyBin2.state_dict

        def naming_the_path(skb):
            payload = state_dict(skb)
            payload["config"]["fused"] = fused
            return payload

        old = tmp_path / "old.kb2"
        with monkeypatch.context() as m:
            m.setattr(StreamingKeyBin2, "state_dict", naming_the_path)
            StreamingKeyBin2(seed=3, **PARAMS).partial_fit(data[:150]).save_state(old)
        assert _stored(old)[1]["config"]["fused"] is fused

        restored = StreamingKeyBin2.load_state(old)
        restored.partial_fit(data[150:])
        restored.refresh()
        assert restored.model_.fingerprint() == straight.model_.fingerprint()
        _assert_same_state(restored.state_dict(), straight.state_dict())

        resaved = tmp_path / "new.kb2"
        restored.save_state(resaved)
        version, payload = _stored(resaved)
        assert version == _stored(old)[0] == 2
        assert "fused" not in payload["config"]

    @staticmethod
    def _save_as_written_with_anticipate(monkeypatch, skb, path, value):
        """Save ``skb`` as a build that still took ``anticipate`` would:
        the option in the config and a tail sketch per adaptive dimension."""
        state_dict = StreamingKeyBin2.state_dict

        def with_anticipate(inst):
            payload = state_dict(inst)
            payload["config"]["anticipate"] = value
            for st in payload["states"] or ():
                n_dims = len(st["r_min"])
                st["sketches"] = [
                    {"max_bins": 64, "centers": [0.0, 1.0], "counts": [1.0, 1.0], "n": 2}
                    for _ in range(n_dims)
                ] if inst.adaptive else None
            return payload

        with monkeypatch.context() as m:
            m.setattr(StreamingKeyBin2, "state_dict", with_anticipate)
            skb.save_state(path)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_checkpoint_naming_anticipate_zero_still_loads(
        self, tmp_path, monkeypatch, adaptive
    ):
        """``anticipate=0`` widened a grid to the observed need only, which
        is all this build does: such a checkpoint resumes exactly, its
        sketches are ignored, and a re-save drops both entries."""
        batches = [x for x, _ in RangeGrowthStream(
            n_batches=4, batch_size=200, n_dims=5, growth=2.0, seed=3)]
        params = dict(seed=5, n_projections=3, candidate_depths=(4, 5),
                      adaptive=adaptive)
        straight = StreamingKeyBin2(**params)
        for x in batches:
            straight.partial_fit(x)
        straight.refresh()

        old = tmp_path / "old.kb2"
        first = StreamingKeyBin2(**params)
        for x in batches[:2]:
            first.partial_fit(x)
        self._save_as_written_with_anticipate(monkeypatch, first, old, 0.0)
        assert _stored(old)[1]["config"]["anticipate"] == 0.0

        restored = StreamingKeyBin2.load_state(old)
        for x in batches[2:]:
            restored.partial_fit(x)
        restored.refresh()
        assert restored.model_.fingerprint() == straight.model_.fingerprint()
        _assert_same_state(restored.state_dict(), straight.state_dict())

        resaved = tmp_path / "new.kb2"
        restored.save_state(resaved)
        payload = _stored(resaved)[1]
        assert "anticipate" not in payload["config"]
        assert all("sketches" not in st for st in payload["states"])

    def test_checkpoint_with_anticipation_is_refused(self, tmp_path, monkeypatch):
        """A positive ``anticipate`` grew grids past the observed need; this
        build cannot reproduce that, so it refuses to resume on a
        different grid and names the retired option."""
        skb = StreamingKeyBin2(seed=5, n_projections=2, adaptive=True,
                               feature_range=(0.0, 1.0))
        skb.partial_fit(np.random.default_rng(2).random((100, 3)))
        path = tmp_path / "anticipating.kb2"
        self._save_as_written_with_anticipate(monkeypatch, skb, path, 1.5)
        with pytest.raises(ValidationError, match="anticipate=1.5"):
            StreamingKeyBin2.load_state(path)

    def test_key_counter_state_dict_round_trip(self, rng):
        rows = rng.integers(0, 5, (80, 3)).astype(np.uint8)
        kc = KeyCounter(capacity=20)
        fold_rows(kc, rows)
        back = KeyCounter.from_state_dict(kc.state_dict())
        ka, ca = kc.to_arrays()
        kb, cb = back.to_arrays()
        np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(ca, cb)
        assert back.evicted_keys == kc.evicted_keys
        assert back.evicted_points == kc.evicted_points


class TestCorruptionDetection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            StreamingKeyBin2.load_state(tmp_path / "nope.kb2")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kb2"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a streaming checkpoint"):
            StreamingKeyBin2.load_state(path)

    def test_flipped_payload_byte(self, rng, tmp_path):
        path = tmp_path / "c.kb2"
        _fitted(rng).save_state(path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            StreamingKeyBin2.load_state(path)

    def test_truncation(self, rng, tmp_path):
        path = tmp_path / "c.kb2"
        _fitted(rng).save_state(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            StreamingKeyBin2.load_state(path)

    def test_future_version_refused(self, rng, tmp_path):
        path = tmp_path / "c.kb2"
        _fitted(rng).save_state(path)
        raw = bytearray(path.read_bytes())
        off = len(StreamingKeyBin2._CKPT_MAGIC)
        struct.pack_into("<I", raw, off, StreamingKeyBin2._CKPT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checkpoint version"):
            StreamingKeyBin2.load_state(path)

    def test_interrupted_save_leaves_previous_intact(self, rng, tmp_path,
                                                     monkeypatch):
        """A crash mid-save (simulated at the rename) must not damage the
        existing checkpoint, and must not leave tmp litter behind."""
        import os

        path = tmp_path / "c.kb2"
        first = _fitted(rng, seed=1)
        first.save_state(path, meta={"gen": 1})

        real_replace = os.replace

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            _fitted(rng, seed=2).save_state(path, meta={"gen": 2})
        monkeypatch.setattr(os, "replace", real_replace)

        back = StreamingKeyBin2.load_state(path)
        assert back.restored_meta_ == {"gen": 1}
        assert list(tmp_path.iterdir()) == [path]


class TestCheckpointManager:
    def test_keep_must_allow_fallback(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, rank=0, keep=1)

    def test_rounds_and_pruning(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path, rank=0, keep=2)
        skb = _fitted(rng)
        for r in (1, 2, 3, 4):
            mgr.save(skb, r)
        assert mgr.rounds() == [4, 3]
        assert not mgr.path_for(1).exists()

    def test_save_meta_carries_round_and_rank(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path, rank=5, keep=2)
        mgr.save(_fitted(rng), 7, meta={"chunks_done": 14})
        skb = mgr.load(7)
        assert skb.restored_meta_ == {"round": 7, "rank": 5, "chunks_done": 14}

    def test_load_latest_skips_corrupt_newest(self, rng, tmp_path):
        mgr = CheckpointManager(tmp_path, rank=0, keep=3)
        skb = _fitted(rng)
        mgr.save(skb, 1)
        mgr.save(skb, 2)
        newest = mgr.path_for(2)
        newest.write_bytes(newest.read_bytes()[:40])
        loaded, round_idx = mgr.load_latest()
        assert round_idx == 1
        assert loaded.n_seen_ == skb.n_seen_

    def test_load_latest_empty_dir(self, tmp_path):
        assert CheckpointManager(tmp_path, rank=0).load_latest() is None


class TestCommonRound:
    def test_newest_round_on_every_rank(self, rng, tmp_path):
        skb = _fitted(rng)
        for rank in range(3):
            mgr = CheckpointManager(tmp_path, rank)
            mgr.save(skb, 1)
            mgr.save(skb, 2)
        CheckpointManager(tmp_path, 0).save(skb, 3)  # rank 0 raced ahead
        assert common_checkpoint_round(tmp_path, 3) == 2

    def test_no_common_round(self, rng, tmp_path):
        skb = _fitted(rng)
        CheckpointManager(tmp_path, 0).save(skb, 1)
        CheckpointManager(tmp_path, 1).save(skb, 2)
        assert common_checkpoint_round(tmp_path, 2) is None

    def test_empty_directory(self, tmp_path):
        assert common_checkpoint_round(tmp_path, 2) is None


class TestDistributedResume:
    N_RESIDUES, N_FRAMES, CHUNK, EVERY = 24, 160, 40, 2
    KEYBIN = {"feature_range": (0.0, 6.0), "candidate_depths": (5, 6)}

    def _trajs(self, n=2):
        proto = TrajectorySimulator(self.N_RESIDUES, self.N_FRAMES, 4, seed=50)
        targets = proto.simulate().phase_targets
        return [
            TrajectorySimulator(
                self.N_RESIDUES, self.N_FRAMES, 4, phase_targets=targets,
                seed=51 + i,
            ).simulate(name=f"traj{i}")
            for i in range(n)
        ]

    def _run(self, trajs, **kw):
        return run_distributed_insitu(
            trajs, chunk_size=self.CHUNK, consolidate_every=self.EVERY,
            seed=0, timeout=30.0, **kw, **self.KEYBIN,
        )

    def test_restart_resumes_from_common_round(self, tmp_path):
        trajs = self._trajs()
        first = self._run(trajs, checkpoint_dir=tmp_path)
        assert all(r.resumed_round is None for r in first)
        # Rank 1 lost its newest checkpoint: the restart must agree on the
        # older common barrier and replay the chunks it covers.
        newest = max(CheckpointManager(tmp_path, 1).rounds())
        CheckpointManager(tmp_path, 1).path_for(newest).unlink()
        second = self._run(trajs, checkpoint_dir=tmp_path)
        assert all(r.resumed_round == newest - 1 for r in second)
        for a, b in zip(first, second):
            assert b.n_clusters == a.n_clusters
            np.testing.assert_array_equal(b.labels, a.labels)

    def test_completed_run_resumes_to_noop(self, tmp_path):
        trajs = self._trajs()
        first = self._run(trajs, checkpoint_dir=tmp_path)
        second = self._run(trajs, checkpoint_dir=tmp_path)
        assert all(r.resumed_round == self.N_FRAMES // self.CHUNK // self.EVERY
                   for r in second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(b.labels, a.labels)

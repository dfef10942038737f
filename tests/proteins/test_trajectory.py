"""Tests for the synthetic trajectory simulator."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.proteins.encode import encode_frames
from repro.proteins import trajectory
from repro.proteins.trajectory import TrajectorySimulator


class TestSimulator:
    @pytest.fixture(scope="class")
    def traj(self):
        return TrajectorySimulator(
            n_residues=32, n_frames=1000, n_phases=3, seed=0
        ).simulate()

    def test_shapes(self, traj):
        assert traj.angles.shape == (1000, 32, 3)
        assert traj.phase_ids.shape == (1000,)
        assert traj.in_transition.shape == (1000,)
        assert traj.phase_targets.shape == (3, 32)

    def test_angles_wrapped(self, traj):
        assert traj.angles.min() > -180.0 - 1e-9
        assert traj.angles.max() <= 180.0 + 1e-9

    def test_all_phases_visited(self, traj):
        assert set(np.unique(traj.phase_ids)) == {0, 1, 2}

    def test_transition_fraction_close(self, monkeypatch):
        monkeypatch.setattr(trajectory, "TRANSITION_FRACTION", 0.2)
        traj = TrajectorySimulator(
            n_residues=16, n_frames=2000, n_phases=4, seed=1,
        ).simulate()
        assert abs(traj.in_transition.mean() - 0.2) < 0.05

    def test_reproducible(self):
        a = TrajectorySimulator(16, 300, seed=9).simulate()
        b = TrajectorySimulator(16, 300, seed=9).simulate()
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.phase_ids, b.phase_ids)

    def test_stable_frames_match_targets(self, traj):
        """Within a metastable dwell, the encoded secondary structure must
        agree with the phase's target for almost all residues."""
        codes = encode_frames(traj.angles).astype(int)
        stable = ~traj.in_transition
        for p in range(traj.n_phases):
            mask = stable & (traj.phase_ids == p)
            agreement = (codes[mask] == traj.phase_targets[p]).mean()
            assert agreement > 0.9

    def test_consecutive_phases_differ(self, traj):
        for p in range(1, traj.n_phases):
            frac_diff = (traj.phase_targets[p] != traj.phase_targets[p - 1]).mean()
            assert frac_diff > 0.1

    def test_transition_noise_larger(self, traj):
        """Frame-to-frame variation must be larger inside transitions."""
        diffs = np.abs(np.diff(traj.angles, axis=0)).mean(axis=(1, 2))
        trans = traj.in_transition[1:]
        if trans.any() and (~trans).any():
            assert diffs[trans].mean() > diffs[~trans].mean()

    def test_revisits_when_segments_exceed_phases(self):
        traj = TrajectorySimulator(
            n_residues=8, n_frames=1200, n_phases=2, n_segments=5, seed=3
        ).simulate()
        # Phase sequence must contain a revisit (some phase appears in
        # two non-adjacent dwells).
        stable_ids = traj.phase_ids[~traj.in_transition]
        changes = stable_ids[np.concatenate([[True], np.diff(stable_ids) != 0])]
        assert len(changes) >= 3

    def test_short_trajectory_ok(self):
        traj = TrajectorySimulator(n_residues=4, n_frames=50, n_phases=2,
                                   seed=0).simulate()
        assert traj.n_frames == 50

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            TrajectorySimulator(0, 100)
        with pytest.raises(ValidationError):
            TrajectorySimulator(10, 1)

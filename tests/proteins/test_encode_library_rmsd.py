"""Tests for encoding, the model library, and RMSD utilities."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.proteins.encode import N_CLASSES, encode_frames
from repro.proteins.model_library import (
    N_TRAJECTORIES,
    RESIDUES_RANGE,
    STEPS_RANGE,
    library_summary,
    model_library,
)
from repro.proteins.rmsd import (
    angular_rmsd,
    rmsd_time_series,
    select_representatives,
    temporal_smooth,
)
from repro.proteins.trajectory import TrajectorySimulator


class TestEncode:
    def test_shape(self, rng):
        angles = rng.uniform(-180, 180, (20, 8, 3))
        feats = encode_frames(angles)
        assert feats.shape == (20, 8)
        assert feats.dtype == np.float64

    def test_values_are_class_codes(self, rng):
        angles = rng.uniform(-180, 180, (10, 4, 3))
        feats = encode_frames(angles)
        assert feats.min() >= 0
        assert feats.max() < N_CLASSES

    def test_wrong_shape_rejected(self, rng):
        with pytest.raises(ValidationError):
            encode_frames(rng.random((10, 8)))
        with pytest.raises(ValidationError):
            encode_frames(rng.random((10, 8, 2)))


class TestModelLibrary:
    def test_31_trajectories(self):
        specs = model_library()
        assert len(specs) == N_TRAJECTORIES

    def test_extremes_pinned_to_table3(self):
        specs = model_library()
        residues = [s.n_residues for s in specs]
        frames = [s.n_frames for s in specs]
        assert min(residues) == RESIDUES_RANGE[0]
        assert max(residues) == RESIDUES_RANGE[1]
        assert min(frames) == STEPS_RANGE[0]
        assert max(frames) == STEPS_RANGE[1]

    def test_moments_near_table3(self):
        stats = library_summary(model_library())
        assert abs(stats["n_residues"]["mean"] - 193.06) < 30
        assert abs(stats["simulation_time_ps"]["mean"] - 9779.03) < 1000

    def test_first_is_1a70_with_10k_frames(self):
        specs = model_library()
        assert specs[0].name == "1a70"
        assert specs[0].n_frames == 10_000

    def test_scale_shrinks_frames(self):
        full = model_library()
        small = model_library(scale=0.1)
        assert small[5].n_frames < full[5].n_frames
        assert small[5].n_residues == full[5].n_residues

    def test_deterministic(self):
        a = model_library()
        b = model_library()
        assert a == b

    def test_spec_simulates(self):
        spec = model_library(scale=0.02)[3]
        traj = spec.simulate()
        assert traj.n_frames == spec.n_frames
        assert traj.n_residues == spec.n_residues
        assert traj.name == spec.name

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            model_library(scale=0.0)


class TestRMSD:
    def test_zero_for_identical(self, rng):
        frames = rng.uniform(-180, 180, (5, 12))
        assert angular_rmsd(frames, frames[2])[2] == pytest.approx(0.0)

    def test_wrapping(self):
        a = np.array([[179.0]])
        assert angular_rmsd(a, np.array([-179.0]))[0] == pytest.approx(2.0)

    def test_3d_frames_accepted(self, rng):
        angles = rng.uniform(-180, 180, (7, 4, 3))
        d = angular_rmsd(angles, angles[0])
        assert d.shape == (7,)
        assert d[0] == pytest.approx(0.0)

    def test_time_series_shape(self, rng):
        frames = rng.uniform(-180, 180, (20, 6))
        refs = frames[[3, 10]]
        ts = rmsd_time_series(frames, refs)
        assert ts.shape == (2, 20)
        assert ts[0, 3] == pytest.approx(0.0)
        assert ts[1, 10] == pytest.approx(0.0)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValidationError):
            angular_rmsd(rng.random((5, 4)), rng.random(3))

    def test_temporal_smooth_reduces_noise(self, rng):
        base = np.zeros((200, 10))
        noisy = base + rng.normal(0, 10, (200, 10))
        smooth = temporal_smooth(noisy, 9)
        assert smooth.std() < noisy.std() / 2

    def test_select_representatives_distinct_phases(self):
        traj = TrajectorySimulator(32, 1500, n_phases=4, seed=5).simulate()
        reps = select_representatives(traj.angles, 8)
        stable_reps = reps[~traj.in_transition[reps]]
        covered = set(traj.phase_ids[stable_reps].tolist())
        assert len(covered) >= 3  # nearly all phases get a representative

    def test_select_count_and_uniqueness(self, rng):
        frames = rng.uniform(-180, 180, (100, 8))
        reps = select_representatives(frames, 10)
        assert reps.shape == (10,)
        assert np.unique(reps).size == 10

    def test_invalid_n(self, rng):
        with pytest.raises(ValidationError):
            select_representatives(rng.random((5, 2)), 6)

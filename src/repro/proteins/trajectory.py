"""Synthetic protein folding trajectories with metastable dynamics.

Substitute for the MoDEL library (see DESIGN.md): each trajectory visits a
sequence of *metastable phases*. A phase assigns every residue a target
secondary structure; frames inside the phase jitter around the phase's
canonical torsion angles (small variations — "consecutive conformations
keep a similar structure"), while *transition* windows interpolate between
consecutive phases with extra thermal noise ("large structural
variations"). Phases may also revisit earlier conformations, which is what
lets cluster fingerprints re-identify a returned search space.

Ground truth (per-frame phase id and transition mask) is retained so the
in-situ analysis of §5 can be validated quantitatively, which the original
paper could only do qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.proteins.ramachandran import (
    SecondaryStructure,
    region_center,
    wrap_angle,
)
from repro.util.rng import SeedLike, as_generator

__all__ = ["Trajectory", "TrajectorySimulator"]

#: Fraction of frames spent transitioning between segments.
TRANSITION_FRACTION = 0.15
#: Angular jitter (σ, degrees) inside metastable / transition frames.
STABLE_NOISE_DEG = 8.0
TRANSITION_NOISE_DEG = 25.0
#: Fraction of residues whose target class changes between two consecutive
#: phases (the rest keep their structure — conformational changes are
#: usually local).
RESIDUE_FLIP_FRACTION = 0.35

#: Structure types a residue may adopt in a metastable phase. CIS is kept
#: rare (real cis-peptide bonds are ~0.3% of residues).
_PHASE_CLASSES = [
    SecondaryStructure.ALPHA_HELIX,
    SecondaryStructure.BETA_STRAND,
    SecondaryStructure.PII_HELIX,
    SecondaryStructure.GAMMA_PRIME_TURN,
    SecondaryStructure.GAMMA_TURN,
    SecondaryStructure.OTHER,
]
_PHASE_WEIGHTS = np.array([0.30, 0.25, 0.12, 0.08, 0.08, 0.17])
_CIS_PROB = 0.003


@dataclass
class Trajectory:
    """A simulated folding trajectory.

    Attributes
    ----------
    angles:
        (n_frames × n_residues × 3) torsion angles in degrees (φ, ψ, ω).
    phase_ids:
        (n_frames,) ground-truth metastable phase per frame; during a
        transition the id is the phase being entered.
    in_transition:
        (n_frames,) boolean mask of transition frames.
    phase_targets:
        (n_phases × n_residues) target secondary-structure codes.
    name:
        Identifier (MoDEL-style PDB code for library trajectories).
    """

    angles: np.ndarray
    phase_ids: np.ndarray
    in_transition: np.ndarray
    phase_targets: np.ndarray
    name: str = "synthetic"

    @property
    def n_frames(self) -> int:
        return int(self.angles.shape[0])

    @property
    def n_residues(self) -> int:
        return int(self.angles.shape[1])

    @property
    def n_phases(self) -> int:
        return int(self.phase_targets.shape[0])


class TrajectorySimulator:
    """Generates :class:`Trajectory` objects.

    Parameters
    ----------
    n_residues, n_frames:
        Protein size and trajectory length.
    n_phases:
        Number of *distinct* metastable conformations.
    n_segments:
        Number of metastable dwell segments; with
        ``n_segments > n_phases`` some phases are revisited (sampled with
        replacement after the first pass), producing the recurring
        fingerprints of Figure 4.
    phase_targets:
        Optional pre-built (n_phases × n_residues) target-class matrix.
        Passing the same matrix to several simulators gives trajectories
        that explore the *same* conformational library with independent
        dynamics — the cross-trajectory convergence scenario of §5.

    Transition share, jitter and residue flips are the module constants.
    """

    def __init__(
        self,
        n_residues: int,
        n_frames: int,
        n_phases: int = 4,
        n_segments: Optional[int] = None,
        phase_targets: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ):
        if n_residues < 1 or n_frames < 2:
            raise ValidationError("need n_residues >= 1 and n_frames >= 2")
        if n_phases < 1:
            raise ValidationError("n_phases must be >= 1")
        self.n_residues = int(n_residues)
        self.n_frames = int(n_frames)
        self.n_phases = int(n_phases)
        self.n_segments = int(n_segments) if n_segments is not None else max(
            n_phases, int(round(n_phases * 1.5))
        )
        if self.n_segments < 1:
            raise ValidationError("n_segments must be >= 1")
        self.transition_fraction = TRANSITION_FRACTION
        self.stable_noise_deg = STABLE_NOISE_DEG
        self.transition_noise_deg = TRANSITION_NOISE_DEG
        self.residue_flip_fraction = RESIDUE_FLIP_FRACTION
        if phase_targets is not None:
            phase_targets = np.asarray(phase_targets, dtype=np.int8)
            if phase_targets.shape != (self.n_phases, self.n_residues):
                raise ValidationError(
                    f"phase_targets must be ({self.n_phases} × "
                    f"{self.n_residues}), got {phase_targets.shape}"
                )
        self.phase_targets = phase_targets
        self.seed = seed

    # -- phase construction ---------------------------------------------------

    def _phase_targets(self, rng: np.random.Generator) -> np.ndarray:
        """Target class per (phase, residue); consecutive phases differ in
        ~flip_fraction of residues."""
        targets = np.empty((self.n_phases, self.n_residues), dtype=np.int8)
        targets[0] = rng.choice(
            [int(c) for c in _PHASE_CLASSES], size=self.n_residues, p=_PHASE_WEIGHTS
        )
        for p in range(1, self.n_phases):
            targets[p] = targets[p - 1]
            n_flip = max(1, int(round(self.residue_flip_fraction * self.n_residues)))
            flip = rng.choice(self.n_residues, size=n_flip, replace=False)
            targets[p, flip] = rng.choice(
                [int(c) for c in _PHASE_CLASSES], size=n_flip, p=_PHASE_WEIGHTS
            )
        return targets

    def _target_angles(self, targets_row: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """(n_residues × 3) canonical angles for one phase, with rare cis ω."""
        out = np.empty((self.n_residues, 3))
        for cls in np.unique(targets_row):
            mask = targets_row == cls
            out[mask] = region_center(SecondaryStructure(int(cls)))
        cis = rng.random(self.n_residues) < _CIS_PROB
        out[cis, 2] = 0.0
        return out

    # -- simulation ----------------------------------------------------------------

    def simulate(self, name: str = "synthetic") -> Trajectory:
        """Run the generator and return a :class:`Trajectory`."""
        rng = as_generator(self.seed)
        targets = (
            self.phase_targets.copy()
            if self.phase_targets is not None
            else self._phase_targets(rng)
        )
        phase_angles = np.stack(
            [self._target_angles(targets[p], rng) for p in range(self.n_phases)]
        )

        # Segment schedule: first visit each phase once (shuffled), then
        # revisit uniformly.
        first_pass = rng.permutation(self.n_phases)
        extra = rng.integers(self.n_phases, size=max(0, self.n_segments - self.n_phases))
        schedule = np.concatenate([first_pass, extra])[: self.n_segments]
        # Avoid zero-length transitions between identical consecutive phases.
        for i in range(1, schedule.size):
            if schedule[i] == schedule[i - 1] and self.n_phases > 1:
                schedule[i] = (schedule[i] + 1) % self.n_phases

        n_trans_total = int(self.transition_fraction * self.n_frames)
        n_transitions = max(0, schedule.size - 1)
        trans_len = (
            max(1, n_trans_total // n_transitions) if n_transitions else 0
        )
        n_stable_total = self.n_frames - trans_len * n_transitions
        if n_stable_total < schedule.size:
            # Trajectory too short for the schedule; shrink transitions.
            trans_len = max(
                0, (self.n_frames - schedule.size) // max(1, n_transitions)
            )
            n_stable_total = self.n_frames - trans_len * n_transitions
        seg_lengths = np.full(schedule.size, n_stable_total // schedule.size)
        seg_lengths[: n_stable_total % schedule.size] += 1

        angles = np.empty((self.n_frames, self.n_residues, 3))
        phase_ids = np.empty(self.n_frames, dtype=np.int64)
        in_transition = np.zeros(self.n_frames, dtype=bool)

        frame = 0
        for s, phase in enumerate(schedule):
            # Metastable dwell.
            length = int(seg_lengths[s])
            base = phase_angles[phase]
            noise = rng.standard_normal((length, self.n_residues, 3))
            angles[frame : frame + length] = base + noise * self.stable_noise_deg
            phase_ids[frame : frame + length] = phase
            frame += length
            # Transition to the next segment.
            if s < schedule.size - 1 and trans_len > 0:
                nxt = schedule[s + 1]
                alpha = np.linspace(0.0, 1.0, trans_len + 2)[1:-1]
                interp = (
                    phase_angles[phase][None] * (1 - alpha)[:, None, None]
                    + phase_angles[nxt][None] * alpha[:, None, None]
                )
                noise = rng.standard_normal((trans_len, self.n_residues, 3))
                angles[frame : frame + trans_len] = (
                    interp + noise * self.transition_noise_deg
                )
                phase_ids[frame : frame + trans_len] = nxt
                in_transition[frame : frame + trans_len] = True
                frame += trans_len
        assert frame == self.n_frames, (frame, self.n_frames)

        angles = wrap_angle(angles)
        return Trajectory(
            angles=angles,
            phase_ids=phase_ids,
            in_transition=in_transition,
            phase_targets=targets,
            name=name,
        )

"""Protein folding trajectory substrate (paper §5).

The paper analyzes 31 trajectories from the MoDEL library, characterizing
each frame by per-residue backbone torsion angles (φ, ψ, ω) mapped onto six
secondary-structure types via the Ramachandran plot. MoDEL is not
redistributable here, so :mod:`repro.proteins.trajectory` synthesizes
trajectories with explicit metastable and transition phases — the dynamics
regime §5 describes — and :mod:`repro.proteins.model_library` instantiates
a 31-trajectory collection whose size statistics match the paper's Table 3.
"""

from __future__ import annotations

from repro.proteins.ramachandran import (
    SecondaryStructure,
    classify_torsions,
    region_center,
)
from repro.proteins.trajectory import TrajectorySimulator, Trajectory
from repro.proteins.encode import encode_frames
from repro.proteins.model_library import TrajectorySpec, model_library, library_summary
from repro.proteins.rmsd import (
    angular_rmsd,
    rmsd_time_series,
    select_representatives,
)

__all__ = [
    "SecondaryStructure",
    "classify_torsions",
    "region_center",
    "TrajectorySimulator",
    "Trajectory",
    "encode_frames",
    "TrajectorySpec",
    "model_library",
    "library_summary",
    "angular_rmsd",
    "rmsd_time_series",
    "select_representatives",
]

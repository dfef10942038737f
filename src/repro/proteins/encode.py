"""Frame → feature-vector encoding (paper §5.1).

"Every residue was characterized by the torsion angle phi versus psi and
omega … we can associate each amino acid residue with one of six types of
secondary structures." A trajectory frame thus becomes a length-
``n_residues`` vector of secondary-structure codes — the representation
KeyBin2 clusters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.proteins.ramachandran import SecondaryStructure, classify_torsions

__all__ = ["encode_frames"]

N_CLASSES = len(SecondaryStructure)


def encode_frames(angles: np.ndarray) -> np.ndarray:
    """Encode (n_frames × n_residues × 3) torsions as SS-code features.

    Returns an (n_frames × n_residues) float64 matrix of class codes —
    discrete values, but the *ordering* KeyBin2 bins over is stable because
    a residue's code only moves when its structure actually changes.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[2] != 3:
        raise ValidationError(
            "angles must be (n_frames × n_residues × 3 [phi, psi, omega])"
        )
    codes = classify_torsions(angles[..., 0], angles[..., 1], angles[..., 2])
    return codes.astype(np.float64)

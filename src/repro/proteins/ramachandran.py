"""Ramachandran classification of backbone torsion angles (paper §5.1).

Each residue's conformation is the triple (φ, ψ, ω) in degrees. ω is
restricted to ~180° (trans) with a rare cis case near 0°; (φ, ψ) fall into
characteristic regions of the Ramachandran plot. Following the paper, six
secondary-structure types are distinguished:

α-helix, β-strand, polyproline PII-helix, γ′-turn (inverse), γ-turn
(classic), and cis-peptide bonds; anything else is OTHER (coil).

Region rectangles below are the standard textbook windows; exact borders
matter less than their *stability* — a residue dwelling in a phase keeps
its class despite thermal noise, which is what makes the encoded features
clusterable.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = ["SecondaryStructure", "classify_torsions", "region_center", "REGIONS"]


class SecondaryStructure(enum.IntEnum):
    """The paper's six secondary-structure classes plus coil."""

    ALPHA_HELIX = 0
    BETA_STRAND = 1
    PII_HELIX = 2
    GAMMA_PRIME_TURN = 3
    GAMMA_TURN = 4
    CIS_PEPTIDE = 5
    OTHER = 6


#: (φ_min, φ_max, ψ_min, ψ_max) windows per class, degrees. Checked in
#: order; the first match wins (regions are disjoint except PII vs β,
#: where φ decides).
REGIONS: dict = {
    SecondaryStructure.ALPHA_HELIX: (-100.0, -30.0, -80.0, -5.0),
    SecondaryStructure.BETA_STRAND: (-180.0, -90.0, 90.0, 180.0),
    SecondaryStructure.PII_HELIX: (-90.0, -50.0, 120.0, 180.0),
    SecondaryStructure.GAMMA_PRIME_TURN: (-95.0, -55.0, 50.0, 90.0),
    SecondaryStructure.GAMMA_TURN: (55.0, 95.0, -90.0, -40.0),
}

#: |ω| below this (degrees) marks a cis-peptide bond.
CIS_OMEGA_LIMIT = 90.0


def wrap_angle(angle: np.ndarray) -> np.ndarray:
    """Wrap degrees into (−180, 180]: ``-((−a + 180) mod 360 − 180)``.

    The float remainder runs only when some entry of ``−a + 180`` lies
    outside ``[0, 360)`` (or is NaN): inside that interval
    ``np.remainder`` returns its argument exactly, so skipping it leaves
    the result bit-identical to the formula. Angles this function already
    wrapped are all inside, and so are almost all torsions from
    ``atan2``. The work is
    done in one buffer, in place, so wrapping a whole trajectory needs no
    temporary beyond the result.
    """
    a = np.asarray(angle, dtype=np.float64)
    y = np.negative(a, out=np.empty(a.shape))
    y += 180.0
    if y.size and not (y.min() >= 0.0 and y.max() < 360.0):
        np.remainder(y, 360.0, out=y)
    y -= 180.0
    # [()] returns a 0-d result as a scalar, as the formula does.
    return np.negative(y, out=y)[()]


def classify_torsions(
    phi: np.ndarray, psi: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Vectorized (φ, ψ, ω) → :class:`SecondaryStructure` codes.

    Inputs are broadcast together; angles in degrees, any range (wrapped
    internally). Returns int8 class codes.
    """
    phi = wrap_angle(phi)
    psi = wrap_angle(psi)
    omega = wrap_angle(omega)
    phi, psi, omega = np.broadcast_arrays(phi, psi, omega)
    out = np.full(phi.shape, int(SecondaryStructure.OTHER), dtype=np.int8)

    # Rectangular (φ, ψ) regions, most specific first where they overlap.
    for cls in (
        SecondaryStructure.PII_HELIX,       # overlaps β in ψ; φ decides
        SecondaryStructure.BETA_STRAND,
        SecondaryStructure.ALPHA_HELIX,
        SecondaryStructure.GAMMA_PRIME_TURN,
        SecondaryStructure.GAMMA_TURN,
    ):
        lo_phi, hi_phi, lo_psi, hi_psi = REGIONS[cls]
        mask = (
            (out == int(SecondaryStructure.OTHER))
            & (phi >= lo_phi) & (phi <= hi_phi)
            & (psi >= lo_psi) & (psi <= hi_psi)
        )
        out[mask] = int(cls)

    # Cis-peptide is an ω property and overrides the (φ, ψ) class — the
    # paper treats it as its own (rare) type.
    out[np.abs(omega) < CIS_OMEGA_LIMIT] = int(SecondaryStructure.CIS_PEPTIDE)
    return out


def region_center(cls: SecondaryStructure) -> Tuple[float, float, float]:
    """Canonical (φ, ψ, ω) for a class — the simulator's phase targets."""
    if cls == SecondaryStructure.CIS_PEPTIDE:
        return (-75.0, 150.0, 0.0)
    if cls == SecondaryStructure.OTHER:
        # A coil target well inside no-man's land of the Ramachandran plot:
        # ≥ 30° from every region border and away from the ±180° wrap,
        # so thermal noise does not flip the classification.
        return (60.0, 30.0, 180.0)
    if cls not in REGIONS:
        raise ValidationError(f"unknown secondary structure {cls!r}")
    lo_phi, hi_phi, lo_psi, hi_psi = REGIONS[cls]
    return ((lo_phi + hi_phi) / 2.0, (lo_psi + hi_psi) / 2.0, 180.0)

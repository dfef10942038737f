"""Torsion-space RMSD and representative-conformation selection (§5.2).

The paper's offline validation computes the root-mean-squared deviation of
every frame against ``N`` representative conformations "sampled by using a
power law distribution with respect to the distance to the mean
conformation." Working in torsion space (our frames *are* torsions), RMSD
uses the wrapped angular difference so −179° and +179° are 2° apart.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.proteins.ramachandran import wrap_angle

__all__ = ["angular_rmsd", "rmsd_time_series", "select_representatives"]

#: Frames averaged to denoise conformations before picking representatives.
DENOISE_WINDOW = 5


def _flat(angles: np.ndarray) -> np.ndarray:
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 3:
        return angles.reshape(angles.shape[0], -1)
    if angles.ndim == 2:
        return angles
    raise ValidationError("angles must be 2-D or (frames × residues × 3)")


def angular_rmsd(frames: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """RMSD (degrees) of every frame to one reference conformation.

    Angular differences are wrapped into (−180, 180] before squaring.
    """
    flat = _flat(frames)
    ref = np.asarray(reference, dtype=np.float64).ravel()
    if ref.shape[0] != flat.shape[1]:
        raise ValidationError(
            f"reference length {ref.shape[0]} != frame length {flat.shape[1]}"
        )
    diff = wrap_angle(flat - ref)
    return np.sqrt(np.mean(diff * diff, axis=1))


def rmsd_time_series(frames: np.ndarray, references: np.ndarray) -> np.ndarray:
    """(n_refs × n_frames) RMSD of every frame to every representative."""
    flat = _flat(frames)
    refs = _flat(references)
    if refs.shape[1] != flat.shape[1]:
        raise ValidationError("references and frames have different widths")
    out = np.empty((refs.shape[0], flat.shape[0]))
    for i in range(refs.shape[0]):
        out[i] = angular_rmsd(flat, refs[i])
    return out


def temporal_smooth(frames: np.ndarray, window: int = 5) -> np.ndarray:
    """Moving average over the frame axis (reflected ends).

    Thermal noise averages out over a few consecutive frames while the
    underlying conformation barely moves, so smoothed frames are better
    anchors for representative selection.
    """
    flat = _flat(frames)
    if window < 1:
        raise ValidationError("window must be >= 1")
    half = window // 2
    if half == 0 or flat.shape[0] <= 1:
        return flat.copy()
    half = min(half, flat.shape[0] - 1)
    padded = np.pad(flat, ((half, half), (0, 0)), mode="reflect")
    csum = np.cumsum(np.vstack([np.zeros((1, flat.shape[1])), padded]), axis=0)
    k = 2 * half + 1
    return (csum[k:] - csum[:-k]) / k


def select_representatives(
    frames: np.ndarray,
    n: int,
) -> np.ndarray:
    """Pick ``n`` *distinct* representative frame indices (paper §5.2).

    On frames smoothed over :data:`DENOISE_WINDOW` steps, the first
    representative is the conformation farthest from the mean (the
    paper's preference for far-from-average conformations, taken to its
    deterministic limit) and each subsequent one the frame farthest from
    every chosen one. Distinctness matters: two representatives of the
    *same* conformation would split its probability mass in eq. 3 and
    erase the stability margin of eq. 4.
    """
    flat = _flat(frames)
    m = flat.shape[0]
    if not (1 <= n <= m):
        raise ValidationError(f"n must be in [1, {m}], got {n}")
    smooth = temporal_smooth(flat, DENOISE_WINDOW)
    mean_conf = smooth.mean(axis=0)
    dist = angular_rmsd(smooth, mean_conf)

    chosen = [int(np.argmax(dist))]
    nearest = angular_rmsd(smooth, smooth[chosen[0]])
    while len(chosen) < n:
        nearest[chosen] = 0.0  # never re-pick a chosen frame
        idx = int(np.argmax(nearest))
        chosen.append(idx)
        np.minimum(nearest, angular_rmsd(smooth, smooth[idx]), out=nearest)
    return np.sort(np.asarray(chosen, dtype=np.int64))

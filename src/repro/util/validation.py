"""Input validation helpers.

These raise :class:`repro.errors.ValidationError` with actionable messages;
they are used at public API boundaries so that internal code can assume
well-formed arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["check_array_2d", "check_finite"]


def check_array_2d(
    x,
    name: str = "X",
    *,
    min_rows: int = 1,
) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous 2-D float64 array with at least
    ``min_rows`` rows and one column."""
    arr = np.asarray(x)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < min_rows:
        raise ValidationError(
            f"{name} needs at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if arr.shape[1] < 1:
        raise ValidationError(
            f"{name} needs at least 1 column(s), got {arr.shape[1]}"
        )
    return np.ascontiguousarray(arr, dtype=np.float64)


def check_finite(x: np.ndarray, name: str = "X") -> np.ndarray:
    """Reject arrays containing NaN or infinity."""
    if not np.all(np.isfinite(x)):
        bad = int(np.size(x) - np.count_nonzero(np.isfinite(x)))
        raise ValidationError(f"{name} contains {bad} non-finite value(s) (NaN/Inf)")
    return x

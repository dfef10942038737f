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
    dtype=np.float64,
    min_rows: int = 1,
    min_cols: int = 1,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous 2-D float array and validate its shape."""
    arr = np.asarray(x)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not allow_empty:
        if arr.shape[0] < min_rows:
            raise ValidationError(
                f"{name} needs at least {min_rows} row(s), got {arr.shape[0]}"
            )
        if arr.shape[1] < min_cols:
            raise ValidationError(
                f"{name} needs at least {min_cols} column(s), got {arr.shape[1]}"
            )
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr


def check_finite(x: np.ndarray, name: str = "X") -> np.ndarray:
    """Reject arrays containing NaN or infinity."""
    if not np.all(np.isfinite(x)):
        bad = int(np.size(x) - np.count_nonzero(np.isfinite(x)))
        raise ValidationError(f"{name} contains {bad} non-finite value(s) (NaN/Inf)")
    return x

"""Random-projection kernel.

Projects points into the reduced space: ``X' = X @ A`` with ``A`` an
``(N, N_rp)`` matrix of unit column vectors. The projected coordinate along
column ``a_i`` is ``|x|·cos(θ_i)`` — exactly the dot product, which is why a
single GEMM implements paper §3.1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError

__all__ = ["project_points"]


def project_points(
    x: np.ndarray,
    matrix: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project ``x`` (M × N) through ``matrix`` (N × N_rp) → (M × N_rp)."""
    x = np.asarray(x, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or matrix.ndim != 2:
        raise ValidationError("project_points needs 2-D x and matrix")
    if x.shape[1] != matrix.shape[0]:
        raise ValidationError(
            f"dimension mismatch: x has {x.shape[1]} features, "
            f"matrix expects {matrix.shape[0]}"
        )
    if out is None:
        return x @ matrix
    np.matmul(x, matrix, out=out)
    return out

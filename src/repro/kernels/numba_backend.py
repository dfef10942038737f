"""Optional numba-JIT kernel backend (gracefully absent without numba).

One scalar loop bins, histograms and byte-packs a chunk with no
intermediate arrays at all — the closest CPU analogue of the paper's
one-thread-per-point CUDA kernels. The loop is compiled **without**
``fastmath``: fused-multiply-add contraction or reassociation would break
the bit-identity contract every backend is held to (see
:class:`~repro.kernels.backend.KernelBackend`), so only the memory-traffic
and dispatch savings are taken, which is where the time goes anyway.

When numba is not installed, :class:`NumbaBackend.is_available` is False,
``auto`` resolution skips it, and asking for it by name raises a clear
``ValidationError`` — nothing in the import path requires numba.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.kernels.backend import NumpyBackend, register_backend

__all__ = ["NumbaBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # noqa: F401

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover - the common case in this image
    _HAVE_NUMBA = False

#: Lazily-compiled JIT kernel, shared across backend instances so the
#: compile cost is paid once per process.
_JIT_KERNEL = None


def _compiled_kernel():  # pragma: no cover - requires numba
    global _JIT_KERNEL
    if _JIT_KERNEL is not None:
        return _JIT_KERNEL
    from numba import njit

    @njit(cache=True, nogil=True)
    def fused(projected, r_min, scale, n_bins, hist_flat, use_hist,
              codes, use_codes, rows, use_rows, oor_low, oor_high, use_oor):
        # projected is dimension-major: (n dims × m samples).
        n, m = projected.shape
        for i in range(m):
            for j in range(n):
                if not np.isfinite(projected[j, i]):
                    return i
        top = float(n_bins - 1)
        if use_codes and n <= 8:
            tail_shift = np.uint64(8 * (8 - n))
        else:
            tail_shift = np.uint64(0)
        for i in range(m):
            code = np.uint64(0)
            for j in range(n):
                # Identical op sequence to bin_indices: subtract,
                # scale, floor, then clamp in float (an overflow to ±inf
                # clamps like its np.clip does).
                v = (projected[j, i] - r_min[j]) * scale[j]
                v = np.floor(v)
                if v < 0.0:
                    v = 0.0
                    if use_oor:
                        oor_low[j] += 1
                elif v > top:
                    v = top
                    if use_oor:
                        oor_high[j] += 1
                b = np.int64(v)
                if use_hist:
                    hist_flat[j * n_bins + b] += 1
                if use_codes:
                    code = (code << np.uint64(8)) | np.uint64(b)
                if use_rows:
                    rows[j, i] = b  # uint8 or uint16: numba casts per dtype
            if use_codes:
                codes[i] = code << tail_shift
        return -1

    _JIT_KERNEL = fused
    return fused


@register_backend
class NumbaBackend(NumpyBackend):
    """JIT scalar-loop backend; inherits the BLAS GEMM from NumPy.

    The GEMM is already optimal through BLAS — only the post-GEMM
    bin/pack/count pass is worth JIT-ing, so that is all this overrides.
    """

    name = "numba"

    @classmethod
    def is_available(cls) -> bool:
        return _HAVE_NUMBA

    def __init__(self) -> None:  # pragma: no cover - requires numba
        if not _HAVE_NUMBA:
            raise ValidationError(
                "the 'numba' kernel backend needs the optional numba package "
                "(not installed); use backend='numpy' or 'auto'"
            )
        super().__init__()
        self._kernel = _compiled_kernel()

    def fused_chunk(  # pragma: no cover - requires numba
        self,
        projected: np.ndarray,
        r_min: np.ndarray,
        scale: np.ndarray,
        n_bins: int,
        hist_flat: Optional[np.ndarray] = None,
        codes: Optional[np.ndarray] = None,
        rows: Optional[np.ndarray] = None,
        oor_low: Optional[np.ndarray] = None,
        oor_high: Optional[np.ndarray] = None,
        obs_lo: Optional[np.ndarray] = None,
        obs_hi: Optional[np.ndarray] = None,
    ) -> int:
        n, m = projected.shape
        if m == 0:
            return -1
        if obs_lo is not None and obs_hi is not None:
            # Bounds before the JIT kernel clobbers the workspace. The
            # accumulators must stay clean on a non-finite chunk, so
            # fold through temporaries only after the screen passes
            # (NaN propagates through min/max; ±inf survives them).
            mn = projected.min(axis=1)
            mx = projected.max(axis=1)
            if not (np.isfinite(mn).all() and np.isfinite(mx).all()):
                finite_cols = np.isfinite(projected).all(axis=0)
                return int(np.flatnonzero(~finite_cols)[0])
            np.minimum(obs_lo, mn, out=obs_lo)
            np.maximum(obs_hi, mx, out=obs_hi)
        use_hist = hist_flat is not None
        use_codes = codes is not None
        use_rows = rows is not None
        use_oor = oor_low is not None and oor_high is not None
        hist_arg = hist_flat if use_hist else np.empty(0, dtype=np.int64)
        codes_arg = codes if use_codes else np.empty(0, dtype=np.uint64)
        rows_arg = rows if use_rows else np.empty((0, 0), dtype=np.uint8)
        oor_lo_arg = oor_low if use_oor else np.empty(0, dtype=np.int64)
        oor_hi_arg = oor_high if use_oor else np.empty(0, dtype=np.int64)
        return int(
            self._kernel(
                projected, r_min, scale,
                np.int64(n_bins), hist_arg, use_hist,
                codes_arg, use_codes, rows_arg, use_rows,
                oor_lo_arg, oor_hi_arg, use_oor,
            )
        )

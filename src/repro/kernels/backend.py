"""Pluggable kernel backends for the fused hot path.

The paper runs projection → binning → histogram → key packing as CUDA
kernels; this repo's reference implementation is vectorized NumPy. The
backend API in this module is the seam between the two worlds: the fused
driver (:mod:`repro.kernels.fused`) orchestrates chunking, workspaces and
accumulation, and delegates the two per-chunk compute primitives — the
GEMM and the fused bin+pack+count kernel — to a :class:`KernelBackend`.

Backends provided:

``numpy``
    Always available. In-place vectorized arithmetic over a per-shape
    scratch cache; the GEMM is BLAS via ``np.matmul``.
``numba``
    Optional (:mod:`repro.kernels.numba_backend`). A JIT-compiled scalar
    loop that bins, packs and counts in one pass over the chunk without
    any intermediate arrays. Auto-detected; gracefully absent when numba
    is not installed.

A GPU backend slots in the same way: subclass :class:`KernelBackend`,
implement ``gemm``/``fused_chunk``, and :func:`register_backend` it.

Selection order (:func:`get_backend`): an explicit name or instance →
the ``REPRO_KERNEL_BACKEND`` environment variable → ``auto`` (numba when
importable, else numpy).

Backends hold per-instance scratch buffers and are **not** thread-safe;
each consumer (one :class:`~repro.core.streaming.StreamingKeyBin2`, one
benchmark loop) resolves its own instance.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Type, Union

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

_LITTLE_ENDIAN = sys.byteorder == "little"


class KernelBackend:
    """One implementation of the per-chunk compute primitives.

    Subclasses implement :meth:`fused_chunk` (and may override
    :meth:`gemm`). The contract both the driver and the equivalence suite
    hold every backend to: outputs must be **bit-identical** to
    :func:`repro.kernels.keys.bin_indices` and the test suite's reference
    chain — same float operations
    (``floor((x - r_min) * scale)`` then clip, with the shared scale from
    :func:`repro.kernels.keys.bin_scale`), no fused-multiply-add
    contraction, no fast-math reassociation.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run on the current host."""
        return True

    def gemm(
        self, x: np.ndarray, matrix: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``x @ matrix``, into ``out`` when given (the chunk workspace)."""
        if out is None:
            return x @ matrix
        np.matmul(x, matrix, out=out)
        return out

    def fused_chunk(
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
        """Bin, count and pack one (n × m) transposed chunk of projected
        coordinates.

        The chunk is dimension-major — row ``j`` holds coordinate ``j`` of
        every sample — because the driver computes the GEMM transposed:
        each state's dimensions then form a *contiguous* block of the
        stacked workspace, which is what makes the in-place float
        arithmetic below stream at memory bandwidth instead of striding.

        Parameters
        ----------
        projected:
            (n × m) float64 chunk, dimension-major. **Clobbered**: the
            driver hands in a workspace slice the backend may overwrite
            in place.
        r_min, scale:
            (n,) float64 binning parameters from
            :func:`repro.kernels.keys.bin_scale` at the deepest depth
            (applied per *row* of the transposed chunk).
        n_bins:
            ``2^deepest`` bins per dimension.
        hist_flat:
            Optional (n · n_bins,) int64 deepest-depth histogram, laid
            out ``dim * n_bins + bin``; accumulated in place. ``None``
            when the caller derives the histogram from the unique key
            counts instead (the narrow-key driver path, which is exact
            and much cheaper than an m-length bincount per chunk).
        codes:
            Optional (m,) uint64 output: the byte-packed deep key of each
            sample (dimension 0 in the most significant byte, low bytes
            zero-padded — the :class:`~repro.core.streaming.KeyCounter`
            code format). Only valid for n ≤ 8.
        rows:
            Optional (n × m) output of raw deep bin indices,
            dimension-major: uint8, or uint16 when ``n_bins`` exceeds
            256. The wide-key fallback when n > 8, and the per-point
            bins of batch fits.
        oor_low, oor_high:
            Optional (n,) int64 accumulators for out-of-range accounting:
            the number of chunk entries whose pre-clip bin index fell
            below 0 / above ``n_bins - 1`` is **added** per dimension.
            The clip into the boundary bin still happens (the histogram
            and keys stay total), but the saturation is no longer silent
            — callers decide whether to widen the range (adaptive mode)
            or merely report it.
        obs_lo, obs_hi:
            Optional (n,) float64 accumulators for observed bounds: the
            chunk's per-dimension minima/maxima are folded in with
            ``minimum``/``maximum`` (pass ``+inf``/``-inf``-filled
            buffers initially). Both or neither. Backends may use the
            min/max reductions *as* the non-finite screen (NaN
            propagates through both and ±inf survives them), making
            bounds tracking cheaper than a separate finiteness pass —
            but the accumulators must stay untouched when the chunk
            turns out to contain a non-finite coordinate.

        Returns
        -------
        ``-1`` on success, else the chunk-sample index of the first
        sample containing a non-finite coordinate. On a non-negative
        return the chunk's partial accumulation is garbage and the caller
        must discard the whole run (the driver raises
        ``ValidationError``).
        """
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """Vectorized NumPy backend (always available; the default).

    Keeps a per-width scratch cache so steady-state streaming pays zero
    allocations for the integer intermediates; the float arithmetic runs
    in place on the projection workspace the driver owns.
    """

    name = "numpy"

    def __init__(self) -> None:
        self._byte_scratch: Dict[int, np.ndarray] = {}
        self._bin_scratch: Dict[int, np.ndarray] = {}

    def _code_bytes(self, n: int, m: int) -> np.ndarray:
        """(m × 8) zeroed uint8 packing buffer for width-``n`` keys.

        Keyed by width: a given buffer only ever has its ``n`` key byte
        columns written, so its padding columns stay zero from the single
        allocation-time memset — no per-chunk clearing.
        """
        buf = self._byte_scratch.get(n)
        if buf is None or buf.shape[0] < m:
            buf = np.zeros((max(m, 1), 8), dtype=np.uint8)
            self._byte_scratch[n] = buf
        return buf[:m]

    def _bins_u8(self, n: int, m: int) -> np.ndarray:
        buf = self._bin_scratch.get(n)
        if buf is None or buf.shape[1] < m:
            buf = np.empty((n, max(m, 1)), dtype=np.uint8)
            self._bin_scratch[n] = buf
        return buf[:, :m]

    def fused_chunk(
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
            # The min/max reductions double as the non-finite screen:
            # NaN propagates through both and ±inf survives them, so
            # the (n × m) isfinite pass (and its bool temporary) is
            # only paid on the failure path, to locate the bad sample.
            mn = projected.min(axis=1)
            mx = projected.max(axis=1)
            if not (np.isfinite(mn).all() and np.isfinite(mx).all()):
                finite_cols = np.isfinite(projected).all(axis=0)
                return int(np.flatnonzero(~finite_cols)[0])
            np.minimum(obs_lo, mn, out=obs_lo)
            np.maximum(obs_hi, mx, out=obs_hi)
        else:
            finite = np.isfinite(projected)
            if not finite.all():
                return int(np.flatnonzero(~finite.all(axis=0))[0])
        # Same float ops as bin_indices, in place.
        work = projected
        work -= r_min[:, None]
        work *= scale[:, None]
        np.floor(work, out=work)
        if oor_low is not None:
            oor_low += (work < 0.0).sum(axis=1)
        if oor_high is not None:
            oor_high += (work > n_bins - 1).sum(axis=1)
        np.clip(work, 0, n_bins - 1, out=work)
        if codes is not None:
            # Pack keys by byte layout instead of arithmetic: write each
            # dimension's bins (exact uint8 casts — bins < 2^8) into the
            # byte column where a uint64 read gives it weight 256^(7-j),
            # then read the buffer back as uint64. Dimension 0 lands in
            # the most significant byte, so numeric code order equals
            # key-bytes lexicographic order (the KeyCounter canon).
            buf = self._code_bytes(n, m)
            if _LITTLE_ENDIAN:
                for j in range(n):
                    np.copyto(buf[:, 7 - j], work[j], casting="unsafe")
            else:  # pragma: no cover - no big-endian host in CI
                for j in range(n):
                    np.copyto(buf[:, j], work[j], casting="unsafe")
            np.copyto(codes, buf.view(np.uint64).ravel())
        if rows is not None or hist_flat is not None:
            bins = rows if rows is not None else self._bins_u8(n, m)
            np.copyto(bins, work, casting="unsafe")
            if hist_flat is not None:
                hist2d = hist_flat.reshape(n, n_bins)
                for j in range(n):
                    hist2d[j] += np.bincount(bins[j], minlength=n_bins)
        return -1


_REGISTRY: Dict[str, Type[KernelBackend]] = {}

#: Probe order for ``auto`` resolution: fastest available wins.
_AUTO_ORDER: List[str] = ["numba", "numpy"]


def register_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise ValidationError("backend classes must define a concrete `name`")
    _REGISTRY[cls.name] = cls
    return cls


register_backend(NumpyBackend)


def available_backends() -> Dict[str, bool]:
    """Registered backend names → availability on this host."""
    return {name: cls.is_available() for name, cls in sorted(_REGISTRY.items())}


def get_backend(
    name: Union[None, str, KernelBackend] = None
) -> KernelBackend:
    """Resolve a backend instance.

    ``name`` may be an instance (returned as-is), a registered name,
    ``"auto"``, or ``None`` — which consults ``REPRO_KERNEL_BACKEND`` and
    falls back to ``auto``. Returns a **fresh** instance (backends hold
    per-consumer scratch state).
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or "auto"
    name = str(name).strip().lower()
    if name == "auto":
        for candidate in _AUTO_ORDER:
            cls = _REGISTRY.get(candidate)
            if cls is not None and cls.is_available():
                return cls()
        name = "numpy"  # unreachable in practice; numpy is always available
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    if not cls.is_available():
        raise ValidationError(
            f"kernel backend {name!r} is not available on this host "
            "(optional dependency missing); pick another or use 'auto'"
        )
    return cls()

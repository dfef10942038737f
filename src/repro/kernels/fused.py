"""Fused projection → binning → histogram → key kernel.

The reference streaming path materializes, per batch and per projection:
the full projected array, the full deep bin-index array, one shifted copy
per shallower depth, and a uint8 key copy — four full-size intermediates
whose memory traffic dominates ``partial_fit``. This module fuses the
whole pipeline into one chunked pass, the communication-avoiding batched-
BLAS formulation of the kernel-k-means literature applied to KeyBin2:

* **One transposed GEMM per chunk, for all projections.** The
  per-projection matrices are concatenated column-wise and the product is
  computed transposed — ``(Σ n_rp, N) @ (N, chunk)`` — so each input
  chunk is read once, projected for every state in a single BLAS call,
  and each state's dimensions form a *contiguous* dimension-major block
  of the workspace. One caveat kept honest: on some small shapes BLAS
  dispatches different microkernels for the batched and per-state
  products, so an individual dot product may round 1 ulp differently
  than the reference's per-state GEMM. That difference is invisible
  downstream unless a projected value lies within an ulp of a bin
  boundary — measure zero for points in generic position, systematic
  only for a single-point stream whose derived range centers on the
  point itself (see ``tests/property/test_fused_equivalence.py``).
  Everything *after* the GEMM is bit-identical by construction.
* **Bin + pack in one pass over the chunk.** The backend
  (:mod:`repro.kernels.backend`) bins the chunk at the deepest depth and
  byte-packs each sample's deep key — without materializing any
  full-batch intermediate. The float arithmetic is the shared
  :func:`repro.kernels.keys.bin_scale` recipe, so outputs stay
  bit-identical to the reference kernels.
* **Histograms from the key table, not the points.** For states whose
  keys fit one uint64 code (≤ 8 projected dimensions), the deepest
  histogram is derived after the chunk loop from the unique keys and
  their counts — every key *is* its tuple of deepest bin indices, so a
  count-weighted bincount per dimension reproduces the histogram with
  exact integer math in O(unique keys) instead of O(points) per chunk.
* **Shallower depths by prefix arithmetic, after the fact.** Depth-``d``
  bins are the deepest bins shifted right, so the depth-``d`` histogram
  is an exact integer reshape-sum of the deepest histogram — shallower
  depths cost O(histogram), not O(points).
* **Keys as sorted unique codes.** Deep keys are byte-encoded uint64
  codes (dimension 0 most significant, matching
  :class:`~repro.core.streaming.KeyCounter`'s canonical encoding), and the
  per-batch fold hands the counter pre-counted unique codes instead of
  raw rows. States wider than 8 projected dimensions fall back to raw
  uint8 rows.

All workspaces are preallocated per call and sized to
``min(chunk_size, M)`` rows, so single-point streams pay no large
allocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.kernels.backend import KernelBackend, get_backend
from repro.kernels.keys import bin_scale
from repro.obs import default_registry, trace

__all__ = [
    "FusedResult",
    "FusedStateSpec",
    "decode_key_codes",
    "fused_partial_fit",
    "project_bin_count",
]

#: Keys pack into one uint64 code when the projected dimensionality fits
#: 8 bytes; wider states carry raw uint8 rows instead.
_NARROW_DIMS = 8

#: Default driver chunk, the one ``StreamingKeyBin2`` always uses. The
#: chunk feeds a batched BLAS call whose fixed costs amortize measurably
#: up to ~32k rows; the workspace stays bounded
#: (Σ n_rp × 32768 × 8 B ≈ 16 MB at paper scale), far below the
#: full-batch intermediates the fusion exists to avoid.
DEFAULT_FUSED_CHUNK = 32_768


@dataclass(frozen=True)
class FusedStateSpec:
    """One projection state's inputs to the fused driver.

    ``matrix`` may be None (projection disabled: bin the raw features).
    ``depths`` are the candidate depths; the deepest must be ≤ 8 because
    deep keys are stored as bytes (the streaming invariant).
    """

    matrix: Optional[np.ndarray]
    r_min: np.ndarray
    r_max: np.ndarray
    depths: Tuple[int, ...]


@dataclass
class FusedResult:
    """Per-state outputs of one fused pass.

    hist:
        depth → (n_dims × 2^depth) int64 histogram of this batch.
    key_rows:
        (K × n_dims) uint8 unique deep keys, byte-lexicographically
        sorted.
    key_counts:
        (K,) int64 occurrences of each unique key in the batch.
    key_codes:
        (K,) uint64 byte-packed codes of ``key_rows`` (same order) when
        n_dims ≤ 8, else None — the zero-copy handoff into
        :meth:`~repro.core.streaming.KeyCounter.merge_encoded`.
    n_rows:
        Points processed.
    backend:
        Name of the backend that ran the pass.
    oor_low, oor_high:
        (n_dims,) int64 out-of-range accounting: how many of this batch's
        entries were clipped into the bottom/top boundary bin per
        dimension. Always populated — silent edge-bin saturation is the
        open-world failure mode this exists to surface. Adaptive callers
        treat any nonzero count as "widen the grid and re-run the batch".
    obs_lo, obs_hi:
        (n_dims,) float64 observed minima/maxima of the projected batch,
        or None unless the caller asked for bounds tracking
        (``track_bounds=True``) — only adaptive range discovery needs
        them, and the per-chunk reductions are not free.
    """

    hist: Dict[int, np.ndarray]
    key_rows: np.ndarray
    key_counts: np.ndarray
    key_codes: Optional[np.ndarray]
    n_rows: int
    backend: str
    oor_low: Optional[np.ndarray] = None
    oor_high: Optional[np.ndarray] = None
    obs_lo: Optional[np.ndarray] = None
    obs_hi: Optional[np.ndarray] = None


def decode_key_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Unpack byte-encoded uint64 key codes into (K × width) uint8 rows."""
    if width < 1 or width > _NARROW_DIMS:
        raise ValidationError(f"code width must be in [1, 8], got {width}")
    big = np.asarray(codes, dtype=np.uint64).astype(">u8")
    return big.view(np.uint8).reshape(-1, 8)[:, :width].copy()


class _PreparedState:
    """Driver-internal per-state workspace and accumulators."""

    def __init__(self, spec: FusedStateSpec, n_features: int, m_total: int):
        matrix = spec.matrix
        if matrix is not None:
            matrix = np.ascontiguousarray(matrix, dtype=np.float64)
            if matrix.ndim != 2:
                raise ValidationError("projection matrices must be 2-D")
            if matrix.shape[0] != n_features:
                raise ValidationError(
                    f"projection matrix expects {matrix.shape[0]} features, "
                    f"input has {n_features}"
                )
            n_dims = matrix.shape[1]
        else:
            n_dims = n_features
        depths = tuple(sorted(set(int(d) for d in spec.depths)))
        if not depths:
            raise ValidationError("each state needs at least one depth")
        if depths[0] < 1 or depths[-1] > 8:
            raise ValidationError(
                "the fused path stores deep keys as bytes; depths must lie "
                f"in [1, 8], got {depths}"
            )
        self.matrix = matrix
        self.n_dims = n_dims
        self.depths = depths
        self.deepest = depths[-1]
        self.n_bins = 1 << self.deepest
        self.r_min, self.scale = bin_scale(spec.r_min, spec.r_max, self.deepest)
        if self.r_min.shape[0] != n_dims:
            raise ValidationError(
                f"r_min/r_max length {self.r_min.shape[0]} does not match "
                f"the state's {n_dims} projected dimensions"
            )
        self.narrow = n_dims <= _NARROW_DIMS
        # Narrow states derive the deepest histogram from the unique key
        # counts after the chunk loop (exact integer math, O(K) instead
        # of O(M)); only wide states accumulate a histogram per chunk.
        self.hist_flat = (
            None if self.narrow else np.zeros(n_dims * self.n_bins, dtype=np.int64)
        )
        self.codes = np.empty(m_total, dtype=np.uint64) if self.narrow else None
        # Wide-key bin indices, dimension-major to match the transposed
        # chunk layout; transposed back once at unique time.
        self.rows_t = (
            None if self.narrow else np.empty((n_dims, m_total), dtype=np.uint8)
        )
        # Out-of-range accounting, accumulated across chunks by the
        # backend; observed bounds filled by the driver when requested.
        self.oor_low = np.zeros(n_dims, dtype=np.int64)
        self.oor_high = np.zeros(n_dims, dtype=np.int64)
        self.obs_lo: Optional[np.ndarray] = None
        self.obs_hi: Optional[np.ndarray] = None
        # Row slice in the stacked transposed GEMM output (set by driver).
        self.col_start = 0
        self.col_stop = 0


def fused_partial_fit(
    x: np.ndarray,
    specs: Sequence[FusedStateSpec],
    backend: Union[None, str, KernelBackend] = None,
    chunk_size: Optional[int] = DEFAULT_FUSED_CHUNK,
    track_bounds: bool = False,
) -> List[FusedResult]:
    """Run the fused pipeline over ``x`` for several projection states.

    This is the multi-state driver ``StreamingKeyBin2.partial_fit`` uses:
    all states with a projection matrix share one stacked GEMM per chunk.
    Emits the same ``project``/``bin``/``histogram``/``keys`` trace spans
    as the reference path, so phase attribution in the observability
    report is backend-agnostic.

    ``track_bounds=True`` additionally records each state's observed
    projected minima/maxima (``obs_lo``/``obs_hi`` on the result) — the
    measurement adaptive range discovery widens from. The backend folds
    each chunk's bounds before its bin arithmetic clobbers the
    workspace, and uses the same min/max reductions as its non-finite
    screen, so tracking costs roughly one extra pass over the projected
    chunk rather than two plus an isfinite temporary; fixed-range
    callers skip it entirely.

    Raises ``ValidationError`` when any chunk projects to a non-finite
    coordinate (NaN/Inf input); no caller-visible state is touched in that
    case — all accumulation happens in driver-local buffers.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("fused_partial_fit needs a 2-D (points × features) array")
    if not specs:
        raise ValidationError("fused_partial_fit needs at least one state spec")
    m_total, n_features = x.shape
    if chunk_size is None:
        chunk_size = max(m_total, 1)
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    be = get_backend(backend)

    prepared = [_PreparedState(spec, n_features, m_total) for spec in specs]
    if track_bounds and m_total > 0:
        # ±inf-seeded accumulators the backend folds each chunk's
        # min/max into (and uses as its non-finite screen, saving the
        # per-chunk isfinite pass); empty input keeps them None so the
        # result reports "nothing observed" rather than ±inf.
        for p in prepared:
            p.obs_lo = np.full(p.n_dims, np.inf)
            p.obs_hi = np.full(p.n_dims, -np.inf)

    # Column-stack every projection matrix into one GEMM operand: each
    # chunk of x is then read once and projected for all states in a
    # single BLAS call. Column-stacking does not change per-column dot
    # products, so this is bit-identical to separate GEMMs. The GEMM is
    # computed *transposed* — ``stacked.T @ chunk.T`` into a
    # (Σ n_rp × chunk) workspace — so each state's dimensions land in a
    # contiguous dimension-major block: the fused bin/pack arithmetic then
    # streams over contiguous memory instead of striding across the
    # stacked columns (~9× faster per chunk on this layout).
    to_stack = []
    col = 0
    for p in prepared:
        if p.matrix is not None:
            p.col_start, p.col_stop = col, col + p.n_dims
            col += p.n_dims
            to_stack.append(p.matrix)
    stacked_t = (
        np.ascontiguousarray(np.concatenate(to_stack, axis=1).T)
        if to_stack
        else None
    )

    chunk_rows = min(chunk_size, max(m_total, 1))
    proj_ws = (
        np.empty((col, chunk_rows), dtype=np.float64)
        if stacked_t is not None
        else None
    )
    raw_ws = (
        np.empty((n_features, chunk_rows), dtype=np.float64)
        if any(p.matrix is None for p in prepared)
        else None
    )

    t0 = time.perf_counter()
    n_chunk_launches = 0
    for start in range(0, m_total, chunk_rows):
        stop = min(start + chunk_rows, m_total)
        m = stop - start
        if stacked_t is not None:
            with trace.span("project"):
                be.gemm(stacked_t, x[start:stop].T, out=proj_ws[:, :m])
        with trace.span("bin"):
            for p in prepared:
                if p.matrix is not None:
                    view = proj_ws[p.col_start:p.col_stop, :m]
                else:
                    # fused_chunk clobbers its input; bin a writable copy.
                    np.copyto(raw_ws[:, :m], x[start:stop].T)
                    view = raw_ws[:, :m]
                bad = be.fused_chunk(
                    view, p.r_min, p.scale, p.n_bins, p.hist_flat,
                    codes=None if p.codes is None else p.codes[start:stop],
                    rows=None if p.rows_t is None else p.rows_t[:, start:stop],
                    oor_low=p.oor_low, oor_high=p.oor_high,
                    obs_lo=p.obs_lo, obs_hi=p.obs_hi,
                )
                n_chunk_launches += 1
                if bad >= 0:
                    raise ValidationError(
                        f"fused_partial_fit: row {start + bad} projects to a "
                        "non-finite coordinate (NaN/Inf input); filter or "
                        "clean the batch before binning"
                    )

    # Keys before histograms: narrow states build the deepest histogram
    # from the unique key counts (each key's count lands on its per-
    # dimension bins — exact integer math, O(K · n_dims) instead of an
    # O(M)-length bincount per chunk).
    keyed = []
    with trace.span("keys"):
        for p in prepared:
            if m_total == 0:
                key_rows = np.empty((0, p.n_dims), dtype=np.uint8)
                key_counts = np.empty(0, dtype=np.int64)
                key_codes = np.empty(0, dtype=np.uint64) if p.narrow else None
            elif p.narrow:
                # Hand-rolled unique: sort the code buffer in place (its
                # per-sample order is dead after the chunk loop) and
                # run-length encode — same result as np.unique with
                # return_counts, minus its internal flatten/copy pass.
                p.codes.sort()
                boundary = np.empty(m_total, dtype=bool)
                boundary[0] = True
                np.not_equal(p.codes[1:], p.codes[:-1], out=boundary[1:])
                starts = np.flatnonzero(boundary)
                key_codes = p.codes[starts]
                key_counts = np.diff(np.append(starts, m_total))
                key_rows = decode_key_codes(key_codes, p.n_dims)
            else:
                rows = np.ascontiguousarray(p.rows_t.T)
                void = rows.view([("", np.uint8)] * p.n_dims).ravel()
                uniq, counts = np.unique(void, return_counts=True)
                key_rows = uniq.view(np.uint8).reshape(-1, p.n_dims).copy()
                key_counts = counts.astype(np.int64, copy=False)
                key_codes = None
            keyed.append((key_rows, key_counts, key_codes))

    results: List[FusedResult] = []
    with trace.span("histogram"):
        for p, (key_rows, key_counts, key_codes) in zip(prepared, keyed):
            if p.narrow:
                deep = np.zeros((p.n_dims, p.n_bins), dtype=np.int64)
                if key_rows.shape[0]:
                    weights = key_counts.astype(np.float64)
                    for j in range(p.n_dims):
                        # Weighted bincount sums integer counts in float64
                        # — exact below 2^53, far beyond any batch size.
                        deep[j] = np.bincount(
                            key_rows[:, j], weights=weights, minlength=p.n_bins
                        )
            else:
                deep = p.hist_flat.reshape(p.n_dims, p.n_bins)
            hist: Dict[int, np.ndarray] = {}
            for d in p.depths:
                if d == p.deepest:
                    hist[d] = deep
                else:
                    # Depth-d bins are the deepest bins >> (deepest - d),
                    # so the depth-d histogram is an exact integer
                    # reshape-sum over 2^(deepest-d)-wide groups.
                    hist[d] = deep.reshape(
                        p.n_dims, 1 << d, 1 << (p.deepest - d)
                    ).sum(axis=2)
            results.append(
                FusedResult(
                    hist, key_rows, key_counts, key_codes, m_total, be.name,
                    oor_low=p.oor_low, oor_high=p.oor_high,
                    obs_lo=p.obs_lo, obs_hi=p.obs_hi,
                )
            )

    reg = default_registry()
    if reg.enabled:
        labels = {"backend": be.name}
        reg.counter(
            "kernel_fused_chunks_total",
            "Fused bin+pack+count chunk launches, per backend.",
            ("backend",),
        ).labels(**labels).inc(n_chunk_launches)
        reg.counter(
            "kernel_fused_rows_total",
            "Points processed by the fused kernel path, per backend.",
            ("backend",),
        ).labels(**labels).inc(m_total)
        reg.counter(
            "kernel_fused_seconds_total",
            "Wall seconds spent inside the fused kernel driver, per backend.",
            ("backend",),
        ).labels(**labels).inc(time.perf_counter() - t0)
    return results


def project_bin_count(
    x: np.ndarray,
    matrix: Optional[np.ndarray],
    r_min: np.ndarray,
    r_max: np.ndarray,
    depths: Sequence[int],
    backend: Union[None, str, KernelBackend] = None,
    chunk_size: Optional[int] = DEFAULT_FUSED_CHUNK,
) -> FusedResult:
    """Fused GEMM → bin → histogram → key pass for one projection state.

    The single-state public entry point: per chunk it projects, derives
    deepest-depth bin indices, accumulates the histogram and packs deep
    keys, never materializing a full projected or bin-index array. Returns
    a :class:`FusedResult`; bit-identical to running the reference
    kernels (``project_points`` → ``bin_indices`` → ``prefix_bins`` →
    ``accumulate_histogram`` → key counting) on the same inputs.
    """
    spec = FusedStateSpec(
        matrix=matrix,
        r_min=np.asarray(r_min, dtype=np.float64),
        r_max=np.asarray(r_max, dtype=np.float64),
        depths=tuple(int(d) for d in depths),
    )
    (result,) = fused_partial_fit(
        x, [spec], backend=backend, chunk_size=chunk_size
    )
    return result

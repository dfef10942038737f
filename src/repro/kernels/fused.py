"""Fused projection → binning → histogram → key kernel.

Streaming ingest written step by step materializes, per batch and per
projection: the full projected array, the full deep bin-index array, one
shifted copy per shallower depth, and a uint8 key copy — four full-size
intermediates whose memory traffic would dominate ``partial_fit``. This
module fuses the whole pipeline into one chunked pass, the
communication-avoiding batched-BLAS formulation of the kernel-k-means
literature applied to KeyBin2. It is the only ingest path; the test
suite keeps the step-by-step chain (``tests/kernels/oracle.py``) as the
oracle it is held to:

* **One transposed GEMM per chunk, for all projections.** The
  per-projection matrices are concatenated column-wise and the product is
  computed transposed — ``(Σ n_rp, N) @ (N, chunk)`` — so each input
  chunk is read once, projected for every state in a single BLAS call,
  and each state's dimensions form a *contiguous* dimension-major block
  of the workspace. One caveat kept honest: on some small shapes BLAS
  dispatches different microkernels for the batched and per-state
  products, so an individual dot product may round 1 ulp differently
  than the oracle's per-state GEMM. That difference is invisible
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
  bit-identical to the oracle.
* **Histograms from the key table, not the points.** For states whose
  keys fit one uint64 code (≤ 8 projected dimensions), the deepest
  histogram is derived after the chunk loop from the unique keys and
  their counts — every key *is* its tuple of deepest bin indices, so a
  count-weighted bincount per dimension reproduces the histogram with
  exact integer math in O(unique keys) instead of O(points) per chunk.
* **Only the deepest histogram.** Depth-``d`` bins are the deepest bins
  shifted right, so the depth-``d`` histogram is an exact integer
  reshape-sum of the deepest one (:func:`prefix_histograms`). Every
  driver returns the deepest table alone, and the shared model tail
  derives the shallower depths once per fit or refresh.
* **Keys as sorted unique codes.** Deep keys are byte-encoded uint64
  codes (dimension 0 most significant, matching
  :class:`~repro.core.streaming.KeyCounter`'s canonical encoding), and the
  per-batch fold hands the counter pre-counted unique codes instead of
  raw rows. States wider than 8 projected dimensions fall back to raw
  uint8 rows.

Batch and SPMD fits use the same chunk loop through two whole-dataset
entry points: :func:`projected_bounds` runs the stacked GEMM once to
measure every state's range, and :func:`fused_bin_points` then bins,
histograms and keeps every point's deep bins (uint8, or uint16 above
depth 8) for labelling.

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
    "PointBins",
    "decode_key_codes",
    "fused_bin_points",
    "fused_partial_fit",
    "prefix_histograms",
    "projected_bounds",
]

#: Keys pack into one uint64 code when the projected dimensionality fits
#: 8 bytes; wider states carry raw uint8 rows instead.
_NARROW_DIMS = 8

#: Deepest depth of the streaming driver (deep keys are bytes) and of the
#: per-point batch pass (deep bins are uint16 above depth 8).
_MAX_KEY_DEPTH = 8
MAX_POINT_DEPTH = 16

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
    ``depths`` are the candidate depths. :func:`fused_partial_fit` stores
    deep keys as bytes, so its deepest depth must be ≤ 8;
    :func:`fused_bin_points` keeps uint16 bins and allows depths to 16.
    """

    matrix: Optional[np.ndarray]
    r_min: np.ndarray
    r_max: np.ndarray
    depths: Tuple[int, ...]


@dataclass
class FusedResult:
    """Per-state outputs of one fused pass.

    deep:
        (n_dims × 2^deepest) int64 histogram of this batch at the deepest
        depth; every shallower one is :func:`prefix_histograms` of it.
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

    deep: np.ndarray
    key_rows: np.ndarray
    key_counts: np.ndarray
    key_codes: Optional[np.ndarray]
    n_rows: int
    backend: str
    oor_low: Optional[np.ndarray] = None
    oor_high: Optional[np.ndarray] = None
    obs_lo: Optional[np.ndarray] = None
    obs_hi: Optional[np.ndarray] = None


@dataclass
class PointBins:
    """Per-state outputs of :func:`fused_bin_points`.

    deep:
        (n_dims × 2^deepest) int64 histogram at the deepest depth; every
        shallower one is :func:`prefix_histograms` of it.
    rows:
        (n_dims × M) deep bin index of every point, dimension-major:
        uint8, or uint16 when the deepest depth is above 8.
    """

    deep: np.ndarray
    rows: np.ndarray


def decode_key_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Unpack byte-encoded uint64 key codes into (K × width) uint8 rows."""
    if width < 1 or width > _NARROW_DIMS:
        raise ValidationError(f"code width must be in [1, 8], got {width}")
    big = np.asarray(codes, dtype=np.uint64).astype(">u8")
    return big.view(np.uint8).reshape(-1, 8)[:, :width].copy()


def prefix_histograms(deep: np.ndarray, depths: Sequence[int]) -> Dict[int, np.ndarray]:
    """Depth → histogram for every depth in ``depths``, from the deepest.

    Depth-d bins are the deepest bins >> (deepest - d), so the depth-d
    histogram is an exact integer reshape-sum of ``deep`` (n_dims × 2^deepest)
    over 2^(deepest - d)-wide groups. The deepest entry is ``deep`` itself.
    """
    deepest = max(depths)
    n_dims = deep.shape[0]
    return {
        d: deep if d == deepest
        else deep.reshape(n_dims, 1 << d, 1 << (deepest - d)).sum(axis=2)
        for d in depths
    }


def _as_points(x: np.ndarray, where: str) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"{where} needs a 2-D (points × features) array")
    return x


def _checked_matrix(
    matrix: Optional[np.ndarray], n_features: int
) -> Optional[np.ndarray]:
    if matrix is None:
        return None
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("projection matrices must be 2-D")
    if matrix.shape[0] != n_features:
        raise ValidationError(
            f"projection matrix expects {matrix.shape[0]} features, "
            f"input has {n_features}"
        )
    return matrix


def _chunk_rows(chunk_size: Optional[int], m_total: int) -> int:
    if chunk_size is None:
        chunk_size = max(m_total, 1)
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    return min(chunk_size, max(m_total, 1))


class _StackedGemm:
    """One chunked GEMM that projects every state with a matrix.

    Column-stacking the projection matrices makes each chunk of x read
    once and projected for all states in a single BLAS call. Column-
    stacking does not change per-column dot products, so this is
    bit-identical to separate GEMMs.

    The binning layout (default) computes the GEMM *transposed* —
    ``stacked.T @ chunk.T`` into a (Σ n_rp × chunk) workspace — so each
    state's dimensions land in a contiguous dimension-major block: the
    fused bin/pack arithmetic then streams over contiguous memory instead
    of striding across the stacked columns (~9× faster per chunk on this
    layout).

    The bounds layout (``row_major=True``) computes ``chunk @ stacked``
    into a (chunk × Σ n_rp) workspace, with the operand padded by zero
    columns to a multiple of 8 and a one-row chunk run as two rows.
    Bounds set the range every rank shares and enter the model
    fingerprint, so they must not depend on where chunks or shards
    start and end. On OpenBLAS they otherwise do: a transposed GEMM
    rounds the last rows of a chunk whose length is not a multiple of 8
    differently, a row-major one does so for column counts of 1–4
    (mod 8), and a one-row GEMM runs as a matrix-vector product. Those
    are 1-ulp differences; in binning they matter only for a value
    within an ulp of a bin edge.
    """

    def __init__(self, matrices: Sequence[Optional[np.ndarray]], m_total: int,
                 chunk_rows: int, row_major: bool = False):
        self.slices: List[Optional[slice]] = []
        to_stack = []
        col = 0
        for matrix in matrices:
            if matrix is None:
                self.slices.append(None)
                continue
            self.slices.append(slice(col, col + matrix.shape[1]))
            col += matrix.shape[1]
            to_stack.append(matrix)
        self.operand = self.workspace = None
        if to_stack:
            if row_major:
                to_stack.append(np.zeros((to_stack[0].shape[0], -col % 8)))
                self.operand = np.ascontiguousarray(np.concatenate(to_stack, axis=1))
                self.workspace = np.empty((max(chunk_rows, 2), self.operand.shape[1]))
            else:
                self.operand = np.ascontiguousarray(np.concatenate(to_stack, axis=1).T)
                self.workspace = np.empty((col, chunk_rows))
        self.row_major = row_major
        self.m_total = m_total
        self.chunk_rows = chunk_rows

    def chunks(self, x: np.ndarray, be: KernelBackend):
        """Project each chunk; yield its ``(start, stop)`` rows. State
        ``i``'s projection of the chunk is then :meth:`view` ``(i, …)``."""
        for start in range(0, self.m_total, self.chunk_rows):
            stop = min(start + self.chunk_rows, self.m_total)
            if self.operand is not None:
                with trace.span("project"):
                    self._project(x[start:stop], be)
            yield start, stop

    def _project(self, rows: np.ndarray, be: KernelBackend) -> None:
        m = rows.shape[0]
        if not self.row_major:
            be.gemm(self.operand, rows.T, out=self.workspace[:, :m])
            return
        if m == 1:
            rows = np.repeat(rows, 2, axis=0)
        be.gemm(rows, self.operand, out=self.workspace[:rows.shape[0]])

    def view(self, i: int, m: int) -> np.ndarray:
        """State ``i``'s projected chunk: (m × n_dims) in the bounds
        layout, (n_dims × m) dimension-major in the binning layout."""
        if self.row_major:
            return self.workspace[:m, self.slices[i]]
        return self.workspace[self.slices[i], :m]


class _PreparedState:
    """Driver-internal per-state workspace and accumulators.

    The streaming driver keys states by byte-packed codes when they have
    at most 8 dimensions (``narrow``) and by uint8 rows otherwise; the
    per-point batch pass (``per_point``) keeps rows for every state,
    uint16 above depth 8, and skips the out-of-range ledger (its range
    is measured on the very data it bins).
    """

    def __init__(self, spec: FusedStateSpec, n_features: int, m_total: int,
                 per_point: bool = False):
        matrix = _checked_matrix(spec.matrix, n_features)
        n_dims = n_features if matrix is None else matrix.shape[1]
        depths = tuple(sorted(set(int(d) for d in spec.depths)))
        if not depths:
            raise ValidationError("each state needs at least one depth")
        max_depth = MAX_POINT_DEPTH if per_point else _MAX_KEY_DEPTH
        if depths[0] < 1 or depths[-1] > max_depth:
            raise ValidationError(
                f"the fused path stores deep bins as "
                f"{'uint16' if per_point else 'bytes'}; depths must lie "
                f"in [1, {max_depth}], got {depths}"
            )
        self.matrix = matrix
        self.n_dims = n_dims
        self.deepest = depths[-1]
        self.n_bins = 1 << self.deepest
        self.r_min, self.scale = bin_scale(spec.r_min, spec.r_max, self.deepest)
        if self.r_min.shape[0] != n_dims:
            raise ValidationError(
                f"r_min/r_max length {self.r_min.shape[0]} does not match "
                f"the state's {n_dims} projected dimensions"
            )
        self.narrow = n_dims <= _NARROW_DIMS and not per_point
        # Narrow states derive the deepest histogram from the unique key
        # counts after the chunk loop (exact integer math, O(K) instead
        # of O(M)); only row states accumulate a histogram per chunk.
        self.hist_flat = (
            None if self.narrow else np.zeros(n_dims * self.n_bins, dtype=np.int64)
        )
        self.codes = np.empty(m_total, dtype=np.uint64) if self.narrow else None
        # Row-state bin indices, dimension-major to match the transposed
        # chunk layout.
        self.rows_t = None if self.narrow else np.empty(
            (n_dims, m_total),
            dtype=np.uint16 if self.deepest > _MAX_KEY_DEPTH else np.uint8,
        )
        # Out-of-range accounting, accumulated across chunks by the
        # backend; observed bounds filled by the driver when requested.
        self.oor_low = None if per_point else np.zeros(n_dims, dtype=np.int64)
        self.oor_high = None if per_point else np.zeros(n_dims, dtype=np.int64)
        self.obs_lo: Optional[np.ndarray] = None
        self.obs_hi: Optional[np.ndarray] = None


def _bin_chunks(x: np.ndarray, prepared: List[_PreparedState],
                be: KernelBackend, chunk_rows: int, where: str) -> int:
    """The chunk loop both drivers run: one stacked GEMM per chunk, then
    the backend's bin/pack/count kernel per state. Returns the number of
    kernel launches; raises ``ValidationError`` naming the first row that
    projects to a non-finite coordinate."""
    m_total, n_features = x.shape
    gemm = _StackedGemm([p.matrix for p in prepared], m_total, chunk_rows)
    raw_ws = (
        np.empty((n_features, chunk_rows), dtype=np.float64)
        if any(p.matrix is None for p in prepared)
        else None
    )
    n_launches = 0
    for start, stop in gemm.chunks(x, be):
        m = stop - start
        with trace.span("bin"):
            for i, p in enumerate(prepared):
                if p.matrix is not None:
                    view = gemm.view(i, m)
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
                n_launches += 1
                if bad >= 0:
                    raise ValidationError(
                        f"{where}: row {start + bad} projects to a "
                        "non-finite coordinate (NaN/Inf input); filter or "
                        "clean the batch before binning"
                    )
    return n_launches


def _record_launches(be: KernelBackend, n_launches: int, m_total: int,
                     t0: float) -> None:
    reg = default_registry()
    if not reg.enabled:
        return
    labels = {"backend": be.name}
    reg.counter(
        "kernel_fused_chunks_total",
        "Fused bin+pack+count chunk launches, per backend.",
        ("backend",),
    ).labels(**labels).inc(n_launches)
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
    Emits ``project``/``bin``/``histogram``/``keys`` trace spans, the same
    on every backend, so phase attribution in the observability report is
    backend-agnostic.

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
    x = _as_points(x, "fused_partial_fit")
    if not specs:
        raise ValidationError("fused_partial_fit needs at least one state spec")
    m_total, n_features = x.shape
    chunk_rows = _chunk_rows(chunk_size, m_total)
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

    t0 = time.perf_counter()
    n_launches = _bin_chunks(x, prepared, be, chunk_rows, "fused_partial_fit")

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
            results.append(
                FusedResult(
                    deep, key_rows, key_counts,
                    key_codes, m_total, be.name,
                    oor_low=p.oor_low, oor_high=p.oor_high,
                    obs_lo=p.obs_lo, obs_hi=p.obs_hi,
                )
            )

    _record_launches(be, n_launches, m_total, t0)
    return results


def projected_bounds(
    x: np.ndarray,
    matrices: Sequence[Optional[np.ndarray]],
    backend: Union[None, str, KernelBackend] = None,
    chunk_size: Optional[int] = DEFAULT_FUSED_CHUNK,
) -> List[np.ndarray]:
    """Per-dimension [min; max] of every state's projection of ``x``.

    One chunked pass of the stacked GEMM :func:`fused_bin_points` runs
    (same operand, same chunking, but row-major: see
    :class:`_StackedGemm`), keeping only per-column minima and maxima,
    so the bounds do not depend on how the rows are chunked or sharded.
    Returns one (2 × n_dims) float64 array per state; a ``None`` matrix
    measures the raw features. The workspace dies with the call.

    The min/max reductions double as the non-finite screen (NaN
    propagates through both and ±inf survives them): raises
    ``ValidationError`` naming the first row that projects to a
    non-finite coordinate. ``x`` must have at least one row.
    """
    x = _as_points(x, "projected_bounds")
    m_total, n_features = x.shape
    if m_total == 0:
        raise ValidationError("projected_bounds needs at least one row")
    matrices = [_checked_matrix(m, n_features) for m in matrices]
    bounds = [
        np.array([[np.inf], [-np.inf]]).repeat(
            n_features if m is None else m.shape[1], axis=1
        )
        for m in matrices
    ]
    be = get_backend(backend)
    gemm = _StackedGemm(matrices, m_total, _chunk_rows(chunk_size, m_total),
                        row_major=True)
    # A non-finite or overflowing row is reported below by its index; the
    # GEMM's floating-point warnings would only precede that error.
    with np.errstate(invalid="ignore", over="ignore"):
        for start, stop in gemm.chunks(x, be):
            m = stop - start
            with trace.span("bounds"):
                # One reduction over the whole stacked chunk: per-state views
                # stride across it, and short strided rows reduce slowly.
                if gemm.operand is not None:
                    stacked = gemm.workspace[:m]
                    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
                rows = x[start:stop]
                if any(matrix is None for matrix in matrices):
                    raw_lo, raw_hi = rows.min(axis=0), rows.max(axis=0)
                for i, (cols, state) in enumerate(zip(gemm.slices, bounds)):
                    state_lo, state_hi = (
                        (raw_lo, raw_hi) if cols is None else (lo[cols], hi[cols])
                    )
                    if not (np.isfinite(state_lo).all()
                            and np.isfinite(state_hi).all()):
                        view = rows if cols is None else gemm.view(i, m)
                        bad = np.flatnonzero(~np.isfinite(view).all(axis=1))[0]
                        raise ValidationError(
                            f"row {start + int(bad)} projects to a non-finite "
                            "coordinate (NaN/Inf input, or a value too large "
                            "to project); filter or clean it before fitting"
                        )
                    np.minimum(state[0], state_lo, out=state[0])
                    np.maximum(state[1], state_hi, out=state[1])
    return bounds


def fused_bin_points(
    x: np.ndarray,
    specs: Sequence[FusedStateSpec],
    backend: Union[None, str, KernelBackend] = None,
    chunk_size: Optional[int] = DEFAULT_FUSED_CHUNK,
) -> List[PointBins]:
    """The whole-dataset fused pass batch and SPMD fits run.

    The same chunk loop as :func:`fused_partial_fit` (one stacked GEMM
    per chunk, then the backend's bin/count kernel per state), but every
    state keeps each point's deep bins instead of a key table: a fit
    labels its training points, and the per-chunk histogram avoids the
    key sort. Depths may reach 16 (bins are uint16 above depth 8). Each
    state's range should cover its projected data
    (:func:`projected_bounds`); points outside clip into the edge bins.
    """
    x = _as_points(x, "fused_bin_points")
    if not specs:
        raise ValidationError("fused_bin_points needs at least one state spec")
    m_total, n_features = x.shape
    chunk_rows = _chunk_rows(chunk_size, m_total)
    be = get_backend(backend)
    prepared = [
        _PreparedState(spec, n_features, m_total, per_point=True) for spec in specs
    ]
    t0 = time.perf_counter()
    n_launches = _bin_chunks(x, prepared, be, chunk_rows, "fused_bin_points")
    _record_launches(be, n_launches, m_total, t0)
    return [
        PointBins(p.hist_flat.reshape(p.n_dims, p.n_bins), p.rows_t)
        for p in prepared
    ]

"""Incremental KeyBin2 for streams and batch sequences (paper §3, step 2).

The streaming pipeline keeps, per candidate projection, only:

* the projection matrix,
* the binning range (seeded by the first batch, widened by a safety
  factor; later out-of-range values clip into boundary bins),
* per-depth marginal histograms (O(N_rp · B) integers), and
* a capped sparse counter of occupied deep-key cells, which is what the
  final clustering assignment needs to enumerate clusters.

``partial_fit`` is O(batch); ``refresh`` re-runs collapse → cut → score on
the accumulated histograms and installs the best model, mirroring the
paper's "histograms are communicated periodically" regime. ``predict``
labels new points with the current model without storing them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import (
    TailSketch,
    cover_levels,
    grid_bounds,
    rebin_maps,
)
from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.drift import WindowDriftDetector
from repro.core.collapse import collapse_dimensions
from repro.core.model import KeyBin2Model
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition, cell_space_error
from repro.core.projection import projection_matrix, target_dimension
from repro.errors import NotFittedError, ValidationError
from repro.kernels.engine import KernelEngine
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.keys import bin_indices, prefix_bins
from repro.kernels.project import project_points
from repro.obs import default_registry, trace
from repro.util.rng import SeedLike, spawn_generators
from repro.util.validation import check_array_2d, check_finite

__all__ = ["KeyCounter", "StreamingKeyBin2"]


class KeyCounter:
    """Capped sparse counter of occupied deep-key cells.

    Keys are rows of small integers (deep bin indices per kept dimension).
    Storage is fully vectorized: keys of width ≤ 8 bytes are byte-encoded
    into a **sorted** uint64 code array (dimension 0 in the most
    significant byte, so numeric order equals lexicographic byte order —
    the same canonical encoding the fused kernel path emits); wider keys
    fall back to a sorted structured-bytes array. Folding a batch is one
    ``np.unique`` merge instead of a per-key dict walk, which is what
    removed the Python-loop bottleneck from ``partial_fit``.

    When the number of distinct keys exceeds ``capacity``, the
    smallest-count half of the entries is evicted — dropping only cells
    that would have formed negligible clusters. The eviction count is
    tracked so callers can report the approximation.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._codes: Optional[np.ndarray] = None  # sorted codes (see above)
        self._counts: np.ndarray = np.empty(0, dtype=np.int64)
        self.evicted_keys = 0
        self.evicted_points = 0
        self._width: Optional[int] = None

    def __len__(self) -> int:
        return 0 if self._codes is None else int(self._codes.shape[0])

    # -- encoding ----------------------------------------------------------

    @staticmethod
    def _encode_rows(rows: np.ndarray) -> np.ndarray:
        """Canonical code array for (M × w) uint8 rows.

        w ≤ 8: zero-padded big-endian uint64 (value = Σ rows[:, j]·256^(7−j));
        w > 8: a structured-bytes view that compares lexicographically.
        """
        w = rows.shape[1]
        if w <= 8:
            buf = np.zeros((rows.shape[0], 8), dtype=np.uint8)
            buf[:, :w] = rows
            return buf.view(">u8").ravel().astype(np.uint64, copy=False)
        return rows.view([("", np.uint8)] * w).ravel().copy()

    def _decode_codes(self, codes: np.ndarray) -> np.ndarray:
        w = self._width
        assert w is not None
        if w <= 8:
            return codes.astype(">u8").view(np.uint8).reshape(-1, 8)[:, :w].copy()
        return codes.view(np.uint8).reshape(-1, w).copy()

    def _check_width(self, width: int) -> None:
        if self._width is None:
            self._width = int(width)
        elif width != self._width:
            raise ValidationError(
                f"key width changed from {self._width} to {width}"
            )

    # -- folding -----------------------------------------------------------

    def _fold(
        self, codes: np.ndarray, counts: np.ndarray, sorted_unique: bool = False
    ) -> None:
        """Merge (codes, counts) — codes need not be unique or sorted —
        then enforce the capacity cap.

        ``sorted_unique=True`` asserts the codes are already strictly
        increasing (``np.unique`` output); uint64 codes are otherwise
        checked, because the sorted case takes an O(K + u) merge instead
        of re-sorting the whole table — the difference between a ~1 ms
        and a ~7 ms fold at steady state, per projection per batch.
        """
        if codes.dtype == np.uint64:
            if not sorted_unique:
                sorted_unique = codes.shape[0] < 2 or bool(
                    np.all(codes[1:] > codes[:-1])
                )
            if not sorted_unique:
                uniq, inverse = np.unique(codes, return_inverse=True)
                agg = np.zeros(uniq.shape[0], dtype=np.int64)
                np.add.at(agg, inverse, counts)
                codes, counts = uniq, agg
            self._merge_sorted(codes, counts)
        else:
            # Wide structured-bytes keys: numpy defines only equality for
            # structured dtypes, so no searchsorted merge — re-unique the
            # concatenation (rare path: > 8 projected dimensions).
            if self._codes is not None and self._codes.shape[0]:
                codes = np.concatenate([self._codes, codes])
                counts = np.concatenate([self._counts, counts])
            uniq, inverse = np.unique(codes, return_inverse=True)
            merged = np.zeros(uniq.shape[0], dtype=np.int64)
            np.add.at(merged, inverse, counts)
            self._codes = uniq
            self._counts = merged
        if self._codes.shape[0] > self.capacity:
            self._evict()

    def _merge_sorted(self, ucodes: np.ndarray, ucounts: np.ndarray) -> None:
        """Merge strictly-increasing unique uint64 codes into the sorted
        table without re-sorting it: binary-search each new code, add the
        counts of codes already present in place, splice the rest in."""
        if self._codes is None or self._codes.shape[0] == 0:
            # Copy: the table is mutated in place by later folds and must
            # not alias a caller's array (merge_encoded hands in fused-
            # kernel output the caller may still hold).
            self._codes = ucodes.copy()
            self._counts = ucounts.astype(np.int64, copy=True)
            return
        idx = np.searchsorted(self._codes, ucodes)
        in_bounds = idx < self._codes.shape[0]
        present = np.zeros(ucodes.shape[0], dtype=bool)
        present[in_bounds] = self._codes[idx[in_bounds]] == ucodes[in_bounds]
        if present.all():
            # Steady state: every key already tracked. idx entries are
            # distinct (ucodes strictly increase), so fancy += is exact.
            self._counts[idx] += ucounts
            return
        self._counts[idx[present]] += ucounts[present]
        miss = ~present
        self._codes = np.insert(self._codes, idx[miss], ucodes[miss])
        self._counts = np.insert(self._counts, idx[miss], ucounts[miss])

    def _evict(self) -> None:
        # A stable argsort on counts over the code-sorted table orders by
        # (count, key bytes) — eviction stays a pure function of the table
        # contents, so distributed replicas holding the same cells evict
        # the same cells regardless of insertion order.
        assert self._codes is not None
        order = np.argsort(self._counts, kind="stable")
        n_drop = self._codes.shape[0] - self.capacity // 2
        drop = order[:n_drop]
        self.evicted_keys += int(n_drop)
        self.evicted_points += int(self._counts[drop].sum())
        keep = np.ones(self._codes.shape[0], dtype=bool)
        keep[drop] = False
        self._codes = self._codes[keep]
        self._counts = self._counts[keep]

    def update(self, rows: np.ndarray) -> None:
        """Count unique rows of an (M × D) uint8 array."""
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValidationError("KeyCounter.update needs a 2-D array")
        self._check_width(rows.shape[1])
        if rows.shape[0] == 0:
            return
        codes = self._encode_rows(rows)
        uniq, counts = np.unique(codes, return_counts=True)
        self._fold(uniq, counts.astype(np.int64, copy=False), sorted_unique=True)

    def merge_encoded(
        self, codes: np.ndarray, counts: np.ndarray, *, width: int
    ) -> "KeyCounter":
        """Fold byte-encoded uint64 codes with their counts, in place.

        The zero-copy handoff from the fused kernel path
        (:attr:`repro.kernels.fused.FusedResult.key_codes`): codes are
        already in this counter's canonical encoding, so no row
        materialization or re-encoding happens. Only valid for key widths
        ≤ 8 (wider keys go through :meth:`merge_arrays`).
        """
        if width < 1 or width > 8:
            raise ValidationError(
                f"merge_encoded requires key width in [1, 8], got {width}"
            )
        self._check_width(int(width))
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        counts = np.asarray(counts, dtype=np.int64).ravel()
        if codes.shape[0] != counts.shape[0]:
            raise ValidationError(
                "merge_encoded needs matching (K,) codes and counts"
            )
        if codes.shape[0] == 0:
            return self
        self._fold(codes, counts)
        return self

    def merge_arrays(
        self,
        keys: np.ndarray,
        counts: np.ndarray,
        *,
        evicted_keys: int = 0,
        evicted_points: int = 0,
    ) -> "KeyCounter":
        """Fold an arrays-format table (the :meth:`to_arrays` wire format)
        into this counter, in place.

        This is the one sanctioned way to merge counters across ranks: the
        capacity cap is enforced on the merged table (evicting
        smallest-count cells exactly as :meth:`update` would), and the
        source counter's ``evicted_keys``/``evicted_points`` totals are
        accumulated so the merged counter reports the *global*
        approximation, not just its own.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint8)
        counts = np.asarray(counts, dtype=np.int64)
        if keys.ndim != 2 or counts.ndim != 1 or keys.shape[0] != counts.shape[0]:
            raise ValidationError(
                "merge_arrays needs a (K × D) key array and matching (K,) counts"
            )
        if evicted_keys < 0 or evicted_points < 0:
            raise ValidationError("eviction totals cannot be negative")
        self.evicted_keys += int(evicted_keys)
        self.evicted_points += int(evicted_points)
        if keys.shape[0] == 0:
            return self
        self._check_width(keys.shape[1])
        self._fold(self._encode_rows(keys), counts)
        return self

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(keys (K × D) uint8, counts (K,)) of surviving cells, in
        byte-lexicographic key order."""
        if self._codes is None or self._codes.shape[0] == 0 or self._width is None:
            return np.empty((0, 0), dtype=np.uint8), np.empty(0, dtype=np.int64)
        return self._decode_codes(self._codes), self._counts.copy()

    def copy(self) -> "KeyCounter":
        """Independent deep copy (two array copies, no re-encoding)."""
        out = KeyCounter(self.capacity)
        out._codes = None if self._codes is None else self._codes.copy()
        out._counts = self._counts.copy()
        out.evicted_keys = self.evicted_keys
        out.evicted_points = self.evicted_points
        out._width = self._width
        return out

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable plain representation (see :meth:`from_state_dict`)."""
        keys, counts = self.to_arrays()
        return {
            "capacity": self.capacity,
            "width": self._width,
            "keys": keys,
            "counts": counts,
            "evicted_keys": self.evicted_keys,
            "evicted_points": self.evicted_points,
        }

    @classmethod
    def from_state_dict(cls, d: Dict[str, Any]) -> "KeyCounter":
        out = cls(int(d["capacity"]))
        out._width = None if d["width"] is None else int(d["width"])
        keys = np.ascontiguousarray(d["keys"], dtype=np.uint8)
        counts = np.asarray(d["counts"], dtype=np.int64)
        if keys.shape[0]:
            # _fold sorts and uniques, so checkpoints written by the older
            # insertion-ordered implementation restore correctly too.
            out._fold(out._encode_rows(keys), counts)
        out.evicted_keys = int(d["evicted_keys"])
        out.evicted_points = int(d["evicted_points"])
        return out


def _projected_bounds(
    feature_range, matrix, n_features: int, cover_sigmas: float = 2.0
) -> SpaceRange:
    """Concentration bounds of the projected space from feature bounds.

    The exact box-corner extremes of ``Σ_r x_r·a_rj`` are hopelessly loose
    for random unit directions (width O(√N·(high−low))) — real data
    concentrates. A bounded feature contributes at most
    ``(high_r − low_r)/2`` deviation around its midpoint, and for a unit
    column the projected standard deviation is therefore at most
    ``max_r (high_r − low_r)/2`` (Hoeffding/McDiarmid scale, independent of
    N). The range is the projected midpoint ± ``cover_sigmas`` of that
    scale; the vanishingly rare exceedances clip into boundary bins.
    """
    low, high = feature_range
    low = np.broadcast_to(np.asarray(low, dtype=np.float64), (n_features,))
    high = np.broadcast_to(np.asarray(high, dtype=np.float64), (n_features,))
    if np.any(high <= low):
        raise ValidationError("feature_range must satisfy high > low per feature")
    if matrix is None:
        pad = (high - low) * 0.05
        return SpaceRange(low - pad, high + pad)
    mid = (low + high) / 2.0
    center = mid @ matrix
    scale = float(np.max((high - low) / 2.0))
    half = cover_sigmas * scale
    return SpaceRange(center - half, center + half)


def _rebin_key_counter(kc: KeyCounter, maps: np.ndarray) -> KeyCounter:
    """Re-index a key counter's deep-bin rows through old→new bin maps.

    Each key dimension's bin label is mapped through ``maps[j]`` (the
    exact grid-widening map from :func:`repro.core.adaptive.rebin_maps`),
    then the rows are re-folded into a fresh counter. Cells that land on
    the same widened key merge — total tracked mass and the eviction
    ledger are preserved exactly.
    """
    sd = kc.state_dict()
    out = KeyCounter(kc.capacity)
    out._width = kc._width
    keys = sd["keys"]
    if keys.shape[0]:
        new_rows = np.empty(keys.shape, dtype=np.uint8)
        for j in range(keys.shape[1]):
            new_rows[:, j] = maps[j][keys[:, j]]
        out.merge_arrays(
            new_rows, sd["counts"],
            evicted_keys=sd["evicted_keys"], evicted_points=sd["evicted_points"],
        )
    else:
        out.evicted_keys = int(sd["evicted_keys"])
        out.evicted_points = int(sd["evicted_points"])
    return out


class _ProjectionState:
    """Per-projection streaming accumulators.

    ``hist``/``keys`` always hold the rank's best current view: the merged
    global state plus anything accumulated locally since the last merge.
    ``hist_delta``/``keys_delta`` hold *only* the increments since the last
    merge — the delta a distributed consolidation puts on the wire. A rank
    that never consolidates simply carries a delta equal to its history.

    ``hist_local``/``keys_local`` accumulate the *merged portion of this
    rank's own history*: every successful merge folds the just-shipped
    delta into them (:meth:`reset_deltas`), so at any moment

        own full history = hist_local + hist_delta  (resp. keys).

    This is the per-rank ledger fault recovery rebuilds from: after a peer
    dies, survivors discard the merged global view (which contains the
    dead rank's mass) and re-merge their own ledgers — exact survivor-only
    mass without ever re-reading a frame. The fold happens off the hot
    path (at merge time), so ``partial_fit`` pays nothing for it.
    """

    def __init__(
        self,
        matrix: Optional[np.ndarray],
        space: SpaceRange,
        depths: Sequence[int],
        key_capacity: int,
        adaptive: bool = False,
        drift_window: int = 0,
        drift_threshold: float = 0.25,
    ):
        self.matrix = matrix
        self.space = space
        self.depths = tuple(sorted(set(int(d) for d in depths)))
        self.key_capacity = int(key_capacity)
        n_dims = space.n_dims
        self.hist = {d: np.zeros((n_dims, 1 << d), dtype=np.int64) for d in self.depths}
        self.hist_delta = {
            d: np.zeros((n_dims, 1 << d), dtype=np.int64) for d in self.depths
        }
        self.hist_local = {
            d: np.zeros((n_dims, 1 << d), dtype=np.int64) for d in self.depths
        }
        self.keys = KeyCounter(key_capacity)
        self.keys_delta = KeyCounter(key_capacity)
        self.keys_local = KeyCounter(key_capacity)
        self.n_points = 0
        # -- adaptive grid state (see repro.core.adaptive) ------------------
        # The grid is always `grid_bounds(base_space, levels)`; a fixed-range
        # state simply stays at level 0 forever, so `space` == `base_space`.
        self.adaptive = bool(adaptive)
        self.base_space = space
        self.levels = np.zeros(n_dims, dtype=np.int64)
        # Running envelope of everything this rank has observed (projected
        # coordinates), clamped to at least the base bounds. Pure function
        # of the data seen, independent of batching — the input every rank
        # feeds the distributed grid agreement.
        self.need_lo = space.r_min.copy()
        self.need_hi = space.r_max.copy()
        # Monotone epoch, bumped on every rebin; deltas from mismatched
        # epochs are rebinned (never dropped) by the consolidation layer.
        self.bin_epoch = 0
        self.rebin_count = 0
        # Cumulative out-of-range accounting: entries whose pre-clip bin
        # fell outside the grid, per dimension per side. In fixed mode
        # these rows clip (and are counted); in adaptive mode the grid
        # widens and the batch re-runs, so the counts record quarantine
        # events that were subsequently recovered exactly.
        self.oor_low = np.zeros(n_dims, dtype=np.int64)
        self.oor_high = np.zeros(n_dims, dtype=np.int64)
        # Per-dimension tail sketches (adaptive only): fed batch extremes,
        # consulted for anticipatory headroom when `anticipate > 0`.
        self.sketches: Optional[List[TailSketch]] = (
            [TailSketch() for _ in range(n_dims)] if self.adaptive else None
        )
        # Reference/current window drift detector at the deepest depth.
        self.drift: Optional[WindowDriftDetector] = (
            WindowDriftDetector(
                n_dims, 1 << self.depths[-1], drift_window, drift_threshold
            )
            if drift_window > 0
            else None
        )

    # -- adaptive grid ------------------------------------------------------

    def observe(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Fold observed per-dimension extremes into the need envelope."""
        np.minimum(self.need_lo, lo, out=self.need_lo)
        np.maximum(self.need_hi, hi, out=self.need_hi)

    def feed_sketches(self, lo: np.ndarray, hi: np.ndarray) -> None:
        if self.sketches is None:
            return
        for j, sk in enumerate(self.sketches):
            sk.update(float(lo[j]))
            sk.update(float(hi[j]))

    def anticipated_need(self, factor: float) -> Tuple[np.ndarray, np.ndarray]:
        """Sketch-extrapolated (lo, hi) envelope for anticipatory widening."""
        assert self.sketches is not None
        lo = self.need_lo.copy()
        hi = self.need_hi.copy()
        for j, sk in enumerate(self.sketches):
            if sk.n == 0:
                continue
            s_lo, s_hi = sk.headroom(factor)
            lo[j] = min(lo[j], s_lo)
            hi[j] = max(hi[j], s_hi)
        return lo, hi

    def target_levels(self) -> np.ndarray:
        """Smallest chain levels (≥ current) whose grid covers the need."""
        return cover_levels(
            self.base_space.r_min,
            self.base_space.r_max,
            self.need_lo,
            self.need_hi,
            start=self.levels,
        )

    def rebin_to(self, new_levels: np.ndarray) -> bool:
        """Widen the grid to ``new_levels`` and exactly re-index all state.

        Levels only ever grow (``new_levels`` is clamped below by the
        current levels); returns False when nothing changes. The deepest
        histograms are scatter-added through the exact old-bin → new-bin
        maps (:func:`repro.core.adaptive.rebin_maps`); shallower depths
        are then *recomputed* from the deepest by prefix-group sums —
        their invariant (``hist[d]`` equals the depth-``d`` grouping of
        ``hist[deepest]``) is what makes that exact, and a direct
        shallow-depth rebin would not be (the shallow grids of two chain
        levels need not align). Key tables are decoded, mapped per
        dimension, and re-folded; drift windows ride along. Total mass is
        conserved bin-for-bin by construction.
        """
        new_levels = np.maximum(
            np.asarray(new_levels, dtype=np.int64), self.levels
        )
        if np.array_equal(new_levels, self.levels):
            return False
        deepest = self.depths[-1]
        maps = rebin_maps(self.levels, new_levels, deepest)
        n_dims = self.space.n_dims
        for table in (self.hist, self.hist_delta, self.hist_local):
            old = table[deepest]
            new = np.zeros_like(old)
            for j in range(n_dims):
                np.add.at(new[j], maps[j], old[j])
            table[deepest] = new
            for d in self.depths[:-1]:
                table[d] = new.reshape(n_dims, 1 << d, -1).sum(axis=2)
        self.keys = _rebin_key_counter(self.keys, maps)
        self.keys_delta = _rebin_key_counter(self.keys_delta, maps)
        self.keys_local = _rebin_key_counter(self.keys_local, maps)
        if self.drift is not None:
            self.drift.rebin(maps)
        self.levels = new_levels
        r_min, r_max = grid_bounds(
            self.base_space.r_min, self.base_space.r_max, new_levels
        )
        self.space = SpaceRange(r_min, r_max)
        self.bin_epoch += 1
        self.rebin_count += 1
        return True

    def reset_deltas(self) -> None:
        """Fold the merged deltas into the own-history ledger, then zero them."""
        for d in self.depths:
            self.hist_local[d] += self.hist_delta[d]
            self.hist_delta[d][...] = 0
        dk = self.keys_delta.state_dict()
        self.keys_local.merge_arrays(
            dk["keys"], dk["counts"],
            evicted_keys=dk["evicted_keys"], evicted_points=dk["evicted_points"],
        )
        self.keys_delta = KeyCounter(self.key_capacity)

    def rebuild_from_local(self) -> None:
        """Reset to "nothing merged yet": state := own history, all of it
        pending as a delta.

        The recovery path calls this on every survivor before re-merging
        on the shrunken communicator; the subsequent consolidation then
        reconstructs a global view containing exactly the survivors' mass.
        """
        for d in self.depths:
            own = self.hist_local[d] + self.hist_delta[d]
            self.hist[d] = own
            self.hist_delta[d] = own.copy()
            self.hist_local[d] = np.zeros_like(own)
        own_keys = self.keys_local
        dk = self.keys_delta.state_dict()
        own_keys.merge_arrays(
            dk["keys"], dk["counts"],
            evicted_keys=dk["evicted_keys"], evicted_points=dk["evicted_points"],
        )
        self.keys = own_keys
        self.keys_delta = own_keys.copy()
        self.keys_local = KeyCounter(self.key_capacity)


class StreamingKeyBin2:
    """Incremental KeyBin2.

    Parameters mirror :class:`~repro.core.estimator.KeyBin2`, plus:

    range_expand:
        Extra fractional widening of the first batch's measured range, to
        absorb later drift (out-of-range values clip).
    feature_range:
        Optional ``(low, high)`` bounds of the *original* features, known a
        priori (the paper's "predetermined space range"). Scalars or
        per-feature arrays. When given, exact projected bounds are derived
        from each projection matrix instead of measuring the first batch —
        essential for non-stationary streams whose early batches do not
        visit the whole space (e.g. folding trajectories, where secondary-
        structure codes always lie in [0, 6]).
    key_capacity:
        Cap on tracked occupied cells per projection (see
        :class:`KeyCounter`).
    fused:
        When True (default), ``partial_fit`` accumulates through the fused
        kernel path (:mod:`repro.kernels.fused`): one batched GEMM per
        chunk for all projections, bin + histogram + key packing in a
        single pass, no full-size intermediates. ``False`` runs the
        original reference kernels — bit-identical results (the
        equivalence suite enforces this), just slower; kept as the
        semantic baseline.
    backend:
        Kernel backend for the fused path: a name (``"numpy"``,
        ``"numba"``), a :class:`~repro.kernels.backend.KernelBackend`
        instance, or None to consult ``REPRO_KERNEL_BACKEND`` / auto-detect.
    adaptive:
        When True, the binning grid widens itself as out-of-range data
        arrives: each projection tracks the observed coordinate envelope
        and, on any out-of-range event, doubles its range along the
        alternating chain of :mod:`repro.core.adaptive` and **exactly**
        rebins all accumulated histograms and key tables onto the wider
        grid, then re-runs the batch — no row is ever silently clamped.
        On a stream whose a-priori ``feature_range`` is correct nothing
        ever goes out of range, so adaptive mode is bit-identical to
        fixed mode there. Default False (the paper's fixed-range regime).
    drift_window:
        Rows per drift-detection window (0 disables detection). When
        positive, each projection keeps reference/current histogram
        windows at the deepest depth and scores their total-variation
        divergence every ``drift_window`` rows — exposed as the
        ``stream_drift_score`` gauge and via :attr:`drift_detectors` for
        :class:`repro.core.drift.DriftResponder`.
    drift_threshold:
        TV score in (0, 1] at which a completed window reports drift.
    anticipate:
        Tail-headroom factor for anticipatory widening (adaptive mode
        only). 0 (default) widens exactly to cover observed data; a
        positive factor additionally extrapolates each dimension's tail
        sketch outward after an out-of-range event, trading a slightly
        wider grid for fewer rebin cycles on fast-growing ranges. Leaving
        it at 0 keeps accumulation history-independent (cadence
        invariant); anticipation makes the grid depend on batch extremes
        seen so far, so it is strictly opt-in.

    Usage::

        skb = StreamingKeyBin2(seed=0)
        for batch, _ in stream:
            skb.partial_fit(batch)
        skb.refresh()                 # consolidate → model_
        labels = skb.predict(batch)
    """

    def __init__(
        self,
        n_projections: int = 4,
        n_components: Optional[int] = None,
        candidate_depths: Sequence[int] = (4, 5, 6, 7),
        projection: str = "gaussian",
        projection_factor: float = 1.5,
        range_expand: float = 0.25,
        feature_range=None,
        collapse: bool = True,
        uniform_threshold: float = 0.05,
        min_support_bins: int = 3,
        min_cut_prominence: float = 0.10,
        key_capacity: int = 100_000,
        fused: bool = True,
        backend=None,
        adaptive: bool = False,
        drift_window: int = 0,
        drift_threshold: float = 0.25,
        anticipate: float = 0.0,
        seed: SeedLike = None,
        engine: Optional[KernelEngine] = None,
    ):
        if n_projections < 1:
            raise ValidationError("n_projections must be >= 1")
        if drift_window < 0:
            raise ValidationError("drift_window must be >= 0 (0 disables)")
        if anticipate < 0:
            raise ValidationError("anticipate must be >= 0")
        if not candidate_depths:
            raise ValidationError("candidate_depths must be non-empty")
        if max(candidate_depths) > 8:
            raise ValidationError(
                "streaming mode stores deep keys as uint8; depths above 8 "
                "are not supported"
            )
        self.n_projections = int(n_projections)
        self.n_components = n_components
        self.candidate_depths = tuple(sorted(set(int(d) for d in candidate_depths)))
        self.projection = projection
        self.projection_factor = float(projection_factor)
        self.range_expand = float(range_expand)
        self.feature_range = feature_range
        self.collapse = bool(collapse)
        self.uniform_threshold = float(uniform_threshold)
        self.min_support_bins = int(min_support_bins)
        self.min_cut_prominence = float(min_cut_prominence)
        self.key_capacity = int(key_capacity)
        self.fused = bool(fused)
        self.backend = backend
        self.adaptive = bool(adaptive)
        self.drift_window = int(drift_window)
        self.drift_threshold = float(drift_threshold)
        self.anticipate = float(anticipate)
        self.seed = seed
        self.engine = engine
        # Lazily-resolved backend instance (backends carry per-consumer
        # scratch buffers, so each model owns one).
        self._backend_instance = None

        self._states: Optional[List[_ProjectionState]] = None
        self.model_: Optional[KeyBin2Model] = None
        self.n_seen_ = 0
        # Points accumulated locally since the last distributed merge; the
        # delta counterpart of n_seen_ (see insitu.distributed).
        self.n_seen_delta_ = 0
        # Points THIS rank has ever ingested (never touched by merges); the
        # frame ledger fault recovery and lost-mass accounting rely on.
        self.n_own_ = 0
        # Meta dict carried by the checkpoint this instance was restored
        # from (None when the instance was constructed normally).
        self.restored_meta_: Optional[Dict[str, Any]] = None

    # -- accumulation -------------------------------------------------------

    def _initialize(self, x: np.ndarray) -> None:
        n = x.shape[1]
        self.n_features_in_ = n
        rngs = spawn_generators(self.seed, self.n_projections)
        states: List[_ProjectionState] = []
        for rng in rngs:
            if self.projection == "none":
                matrix = None
                projected = x
            else:
                n_rp = (
                    target_dimension(n, factor=self.projection_factor)
                    if self.n_components is None
                    else int(self.n_components)
                )
                n_rp = min(max(n_rp, 1), n)
                matrix = projection_matrix(n, n_rp, seed=rng, kind=self.projection)
                projected = project_points(x, matrix, engine=self.engine)
            if self.feature_range is not None:
                space = _projected_bounds(self.feature_range, matrix, n)
            else:
                space = SpaceRange.from_data(projected, margin=0.05).expand(
                    self.range_expand
                )
            states.append(
                _ProjectionState(
                    matrix, space, self.candidate_depths, self.key_capacity,
                    adaptive=self.adaptive,
                    drift_window=self.drift_window,
                    drift_threshold=self.drift_threshold,
                )
            )
        self._states = states

    def partial_fit(self, x: np.ndarray) -> "StreamingKeyBin2":
        """Accumulate one batch (a single point works too — M = 1 streams)."""
        x = check_array_2d(x, "X")
        if not self.fused or self._states is None:
            # The fused backends reject non-finite values per chunk (any
            # NaN/Inf input propagates to a non-finite projected
            # coordinate — IEEE inf·0 is NaN, so even a zero projection
            # weight cannot mask one), which makes a dedicated O(M·N)
            # validation pass here pure overhead on the fused path. The
            # first batch still takes it: range initialization reduces
            # over x before any kernel runs.
            check_finite(x, "X")
        if self._states is None:
            self._initialize(x)
        assert self._states is not None
        if x.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"batch has {x.shape[1]} features, stream started with "
                f"{self.n_features_in_}"
            )
        with trace.span("partial_fit"):
            if self.fused:
                self._accumulate_fused(x)
            else:
                self._accumulate_reference(x)
        self.n_seen_ += x.shape[0]
        self.n_seen_delta_ += x.shape[0]
        self.n_own_ += x.shape[0]
        reg = default_registry()
        if reg.enabled:
            reg.counter(
                "stream_points_total",
                "Points accumulated by StreamingKeyBin2.partial_fit.",
            ).inc(x.shape[0])
        return self

    def _resolve_backend(self):
        if self._backend_instance is None:
            from repro.kernels.backend import get_backend

            self._backend_instance = get_backend(self.backend)
        return self._backend_instance

    def _accumulate_fused(self, x: np.ndarray) -> None:
        """Fused accumulation: one batched GEMM per chunk for all states,
        bin + histogram + key packing in a single backend pass.

        Bit-identical to :meth:`_accumulate_reference`: the batch
        histogram is computed once and added to both the running view and
        the consolidation delta, and keys fold through the same canonical
        byte encoding with the same once-per-batch eviction cadence.

        Adaptive mode wraps the kernel in a widen-and-retry loop: results
        are batch-local, so nothing touches the accumulators until a pass
        completes with zero out-of-range entries. On any out-of-range
        event the grid widens (at least one level on every offending
        dimension — the forced progression that terminates the float
        boundary case where ``x == r_max`` floors to ``2^depth``), the
        accumulated state is exactly rebinned, and the whole batch
        re-runs on the wider grid.
        """
        from repro.kernels.fused import (
            DEFAULT_FUSED_CHUNK,
            FusedStateSpec,
            fused_partial_fit,
        )

        assert self._states is not None
        chunk = (
            DEFAULT_FUSED_CHUNK if self.engine is None else self.engine.block_size
        )

        def run():
            specs = [
                FusedStateSpec(st.matrix, st.space.r_min, st.space.r_max, st.depths)
                for st in self._states
            ]
            return fused_partial_fit(
                x, specs, backend=self._resolve_backend(), chunk_size=chunk,
                track_bounds=self.adaptive,
            )

        results = run()
        if self.adaptive:
            for st, res in zip(self._states, results):
                st.observe(res.obs_lo, res.obs_hi)
                st.feed_sketches(res.obs_lo, res.obs_hi)
            while True:
                widened = False
                for idx, (st, res) in enumerate(zip(self._states, results)):
                    oor_dims = (res.oor_low > 0) | (res.oor_high > 0)
                    if not oor_dims.any():
                        continue
                    st.oor_low += res.oor_low
                    st.oor_high += res.oor_high
                    self._note_out_of_range(idx, res.oor_low, res.oor_high)
                    if self.anticipate > 0:
                        st.observe(*st.anticipated_need(self.anticipate))
                    target = np.maximum(
                        st.target_levels(), st.levels + oor_dims.astype(np.int64)
                    )
                    if st.rebin_to(target):
                        self._note_rebin(idx)
                    widened = True
                if not widened:
                    break
                results = run()
        for idx, (state, res) in enumerate(zip(self._states, results)):
            if not self.adaptive:
                # Fixed-range mode: out-of-range rows clip into boundary
                # bins (the paper's regime) but are no longer silent.
                state.oor_low += res.oor_low
                state.oor_high += res.oor_high
                self._note_out_of_range(idx, res.oor_low, res.oor_high)
            for d in state.depths:
                state.hist[d] += res.hist[d]
                state.hist_delta[d] += res.hist[d]
            if res.key_codes is not None:
                width = state.space.n_dims
                state.keys.merge_encoded(res.key_codes, res.key_counts, width=width)
                state.keys_delta.merge_encoded(
                    res.key_codes, res.key_counts, width=width
                )
            else:
                state.keys.merge_arrays(res.key_rows, res.key_counts)
                state.keys_delta.merge_arrays(res.key_rows, res.key_counts)
            state.n_points += x.shape[0]
            self._feed_drift(idx, state, res.hist[state.depths[-1]], x.shape[0])

    def _accumulate_reference(self, x: np.ndarray) -> None:
        """Reference accumulation through the unfused kernels.

        The semantic baseline the equivalence suite pins the fused path
        against; also what runs with ``fused=False``.
        """
        assert self._states is not None
        deepest = self.candidate_depths[-1]
        for idx, state in enumerate(self._states):
            with trace.span("project"):
                projected = (
                    x if state.matrix is None
                    else project_points(x, state.matrix, engine=self.engine)
                )
            if self.adaptive:
                lo = projected.min(axis=0)
                hi = projected.max(axis=0)
                state.observe(lo, hi)
                state.feed_sketches(lo, hi)
                if state.rebin_to(state.target_levels()):
                    self._note_rebin(idx)
            with trace.span("bin"):
                # Same widen-and-retry contract as the fused path; the
                # pre-widening above covers observed extremes, so at most
                # the float boundary case (x == r_max) retries here.
                while True:
                    oor_low = np.zeros(state.space.n_dims, dtype=np.int64)
                    oor_high = np.zeros(state.space.n_dims, dtype=np.int64)
                    deep = bin_indices(
                        projected, state.space.r_min, state.space.r_max,
                        deepest, engine=self.engine,
                        oor_low=oor_low, oor_high=oor_high,
                    )
                    oor_dims = (oor_low > 0) | (oor_high > 0)
                    if oor_dims.any():
                        state.oor_low += oor_low
                        state.oor_high += oor_high
                        self._note_out_of_range(idx, oor_low, oor_high)
                    if not self.adaptive or not oor_dims.any():
                        break
                    if self.anticipate > 0:
                        state.observe(*state.anticipated_need(self.anticipate))
                    target = np.maximum(
                        state.target_levels(),
                        state.levels + oor_dims.astype(np.int64),
                    )
                    if state.rebin_to(target):
                        self._note_rebin(idx)
            with trace.span("histogram"):
                for d in state.depths:
                    b = deep if d == deepest else prefix_bins(deep, deepest, d)
                    accumulate_histogram(
                        b, 1 << d, out=state.hist[d], engine=self.engine
                    )
                    accumulate_histogram(
                        b, 1 << d, out=state.hist_delta[d], engine=self.engine
                    )
            with trace.span("keys"):
                deep_u8 = deep.astype(np.uint8)
                state.keys.update(deep_u8)
                state.keys_delta.update(deep_u8)
            state.n_points += x.shape[0]
            if state.drift is not None:
                batch_hist = np.zeros_like(state.hist[deepest])
                accumulate_histogram(
                    deep, 1 << deepest, out=batch_hist, engine=self.engine
                )
                self._feed_drift(idx, state, batch_hist, x.shape[0])

    # -- adaptive/drift telemetry ------------------------------------------

    def _note_rebin(self, idx: int) -> None:
        reg = default_registry()
        if reg.enabled:
            reg.counter(
                "stream_rebin_total",
                "Adaptive grid rebin (range-widening) events per projection.",
                ("projection",),
            ).labels(projection=str(idx)).inc()

    def _note_out_of_range(
        self, idx: int, oor_low: np.ndarray, oor_high: np.ndarray
    ) -> None:
        reg = default_registry()
        if not reg.enabled:
            return
        counter = reg.counter(
            "stream_out_of_range_total",
            "Rows whose pre-clip bin index fell outside the grid, by "
            "projected dimension and side.",
            ("projection", "dim", "side"),
        )
        for j in np.flatnonzero(oor_low):
            counter.labels(
                projection=str(idx), dim=str(int(j)), side="low"
            ).inc(int(oor_low[j]))
        for j in np.flatnonzero(oor_high):
            counter.labels(
                projection=str(idx), dim=str(int(j)), side="high"
            ).inc(int(oor_high[j]))

    def _feed_drift(
        self, idx: int, state: _ProjectionState, batch_deep_hist: np.ndarray,
        n_rows: int,
    ) -> None:
        if state.drift is None:
            return
        score = state.drift.update(batch_deep_hist, n_rows)
        if score is not None:
            reg = default_registry()
            if reg.enabled:
                reg.gauge(
                    "stream_drift_score",
                    "Latest reference/current window TV divergence per "
                    "projection.",
                    ("projection",),
                ).labels(projection=str(idx)).set(float(score))

    @property
    def drift_detectors(self) -> List[Optional[WindowDriftDetector]]:
        """Per-projection drift detectors (empty before the first batch;
        entries are None when ``drift_window`` is 0)."""
        if self._states is None:
            return []
        return [st.drift for st in self._states]

    # -- consolidation ---------------------------------------------------------

    def refresh(self, publish_to=None) -> "StreamingKeyBin2":
        """Re-partition the accumulated histograms and install the best model.

        Parameters
        ----------
        publish_to:
            Optional :class:`repro.serve.ModelRegistry` (or anything with a
            ``publish(model)`` method). When given, the freshly consolidated
            model is atomically hot-swapped into the registry, so an online
            server keeps answering from the previous version until the new
            one is fully installed.
        """
        if self._states is None or self.n_seen_ == 0:
            raise NotFittedError("no data accumulated; call partial_fit first")
        with trace.span("refresh"):
            best_model, fallback = self._refresh_models()
        self.model_ = best_model if best_model is not None else fallback
        reg = default_registry()
        if reg.enabled:
            reg.counter(
                "stream_refreshes_total",
                "StreamingKeyBin2.refresh consolidations performed.",
            ).inc()
            # Edge-bin saturation: the share of deepest-depth mass sitting
            # in boundary bins. On a fixed grid a high value means the
            # range is clipping real structure (the obs report warns);
            # adaptive mode keeps it near the natural tail mass.
            gauge = reg.gauge(
                "stream_edge_bin_fraction",
                "Fraction of deepest-depth histogram mass in boundary bins, "
                "per projection.",
                ("projection",),
            )
            deepest = self.candidate_depths[-1]
            for idx, st in enumerate(self._states):
                h = st.hist[deepest]
                total = int(h.sum())
                if total:
                    edge = int(h[:, 0].sum() + h[:, -1].sum())
                    gauge.labels(projection=str(idx)).set(edge / total)
        if publish_to is not None and self.model_ is not None:
            publish_to.publish(self.model_)
        return self

    def _refresh_models(self):
        """Score every (projection, depth) candidate; return (best, fallback).

        Each depth is one pass: the cuts of every kept dimension of every
        projection come from one stacked :func:`find_cuts` call, then each
        candidate's cell table is a sum of per-dimension gathers over the
        deep keys. Candidates are compared in (projection, depth) order.
        """
        assert self._states is not None
        states = self._states
        depths = self.candidate_depths
        deepest = depths[-1]
        with trace.span("collapse"):
            kept = [
                collapse_dimensions(
                    st.hist[deepest],
                    uniform_threshold=self.uniform_threshold,
                    min_support_bins=self.min_support_bins,
                )
                if self.collapse
                else np.ones(st.space.n_dims, dtype=bool)
                for st in states
            ]
        keys = []
        for st, k in zip(states, kept):
            deep_keys, key_counts = st.keys.to_arrays()
            keys.append((deep_keys[:, k] if deep_keys.size else deep_keys, key_counts))
        bounds = np.cumsum([0] + [int(k.sum()) for k in kept])
        candidates: Dict[tuple, KeyBin2Model] = {}
        overflowed = []
        for d in depths:
            with trace.span("cuts"):
                # The window depends only on the bin count, so one call
                # serves every projection.
                cuts = find_cuts(
                    np.concatenate([st.hist[d][k] for st, k in zip(states, kept)]),
                    n_points=max(st.n_points for st in states),
                    min_prominence=self.min_cut_prominence,
                )
            with trace.span("cell_table"):
                tables = {}
                for trial, (kept_keys, key_counts) in enumerate(keys):
                    partition = PrimaryPartition(d, cuts[bounds[trial]:bounds[trial + 1]])
                    if not partition.codes_fit:
                        overflowed.append((trial, kept[trial], partition))
                        continue
                    if kept_keys.size:
                        codes = partition.codes_for_bins(kept_keys, deepest)
                        table = GlobalClusterTable.from_points(codes, key_counts)
                    else:  # no keys survived (pathological capacity)
                        table = GlobalClusterTable(np.empty(0, dtype=np.int64))
                    tables[trial] = (partition, table)
            with trace.span("score"):
                for trial, (partition, table) in tables.items():
                    state = states[trial]
                    score = histogram_ch_index(
                        state.hist[d][kept[trial]],
                        partition.cuts,
                        partition.decode_cells(table.codes),
                    )
                    candidates[trial, d] = KeyBin2Model(
                        projection=state.matrix,
                        space=state.space,
                        partition=partition,
                        kept_dims=kept[trial],
                        table=table,
                        score=score,
                        depth=d,
                        n_points_fit=state.n_points,
                        meta={
                            "trial": trial,
                            "streaming": True,
                            "evicted_points": state.keys.evicted_points,
                        },
                    )
        if not candidates:
            raise cell_space_error(overflowed)
        best_model: Optional[KeyBin2Model] = None
        fallback: Optional[KeyBin2Model] = None
        for key in sorted(candidates):
            model = candidates[key]
            if model.table.n_clusters >= 2:
                if best_model is None or model.score > best_model.score:
                    best_model = model
            elif fallback is None:
                fallback = model
        return best_model, fallback

    # -- checkpointing -------------------------------------------------------

    _CKPT_FORMAT = "keybin2-stream-state"
    # Version 2 adds the adaptive-grid and drift fields (base bounds,
    # chain levels, need envelope, epoch, OOR ledger, sketches, detector
    # windows). Version-1 checkpoints still load: every new field defaults
    # to its fixed-range value (levels 0, need == space, no detector).
    _CKPT_VERSION = 2
    _CKPT_MAGIC = b"KB2SCKPT"

    _CONFIG_FIELDS = (
        "n_projections", "n_components", "candidate_depths", "projection",
        "projection_factor", "range_expand", "feature_range", "collapse",
        "uniform_threshold", "min_support_bins", "min_cut_prominence",
        "key_capacity", "fused", "backend", "adaptive", "drift_window",
        "drift_threshold", "anticipate",
    )

    def state_dict(self) -> Dict[str, Any]:
        """Complete accumulated state as plain python + numpy.

        Everything ``partial_fit``/``refresh``/``predict`` depend on is
        captured: configuration, per-projection matrices and ranges (the
        entire consumption of the seed's RNG stream), histograms, deltas,
        the own-history ledgers, and key-counter tables. The fitted
        ``model_`` is deliberately excluded — ``refresh()`` rebuilds it
        deterministically from the histograms.
        """
        config = {name: getattr(self, name) for name in self._CONFIG_FIELDS}
        # Backend instances are process-local (scratch buffers); persist the
        # name so the restored instance re-resolves an equivalent backend.
        if not isinstance(config["backend"], (str, type(None))):
            config["backend"] = getattr(config["backend"], "name", None)
        # The seed is provenance only (matrices/ranges are stored), but a
        # plain seed is kept so a restored instance reports its origin.
        config["seed"] = self.seed if isinstance(self.seed, (int, type(None))) else None
        states = None
        if self._states is not None:
            states = []
            for st in self._states:
                states.append({
                    "matrix": st.matrix,
                    "r_min": st.space.r_min,
                    "r_max": st.space.r_max,
                    "depths": st.depths,
                    "key_capacity": st.key_capacity,
                    "hist": {d: st.hist[d] for d in st.depths},
                    "hist_delta": {d: st.hist_delta[d] for d in st.depths},
                    "hist_local": {d: st.hist_local[d] for d in st.depths},
                    "keys": st.keys.state_dict(),
                    "keys_delta": st.keys_delta.state_dict(),
                    "keys_local": st.keys_local.state_dict(),
                    "n_points": st.n_points,
                    # v2 adaptive-grid / drift fields.
                    "base_r_min": st.base_space.r_min,
                    "base_r_max": st.base_space.r_max,
                    "levels": st.levels,
                    "need_lo": st.need_lo,
                    "need_hi": st.need_hi,
                    "bin_epoch": st.bin_epoch,
                    "rebin_count": st.rebin_count,
                    "oor_low": st.oor_low,
                    "oor_high": st.oor_high,
                    "sketches": (
                        None if st.sketches is None
                        else [sk.state_dict() for sk in st.sketches]
                    ),
                    "drift": None if st.drift is None else st.drift.state_dict(),
                })
        return {
            "format": self._CKPT_FORMAT,
            "version": self._CKPT_VERSION,
            "config": config,
            "n_seen": self.n_seen_,
            "n_seen_delta": self.n_seen_delta_,
            "n_own": self.n_own_,
            "n_features_in": getattr(self, "n_features_in_", None),
            "states": states,
        }

    def save_state(self, path, meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically checkpoint the streaming state to ``path``.

        Crash-consistent like :meth:`KeyBin2Model.save`: the payload goes
        to a temporary file in the target directory, is fsynced, then
        ``os.replace``d into place — a write interrupted at any point
        leaves the previous checkpoint untouched. The payload carries a
        magic header, a format version, and a SHA-256 digest, so
        :meth:`load_state` detects truncation or corruption instead of
        deserializing garbage. ``meta`` is an optional plain dict stored
        verbatim (round counters, chunk cursors, …) and surfaced as
        ``restored_meta_`` on load.
        """
        import hashlib
        import os
        import pickle
        import struct
        import tempfile
        from pathlib import Path

        payload = dict(self.state_dict())
        payload["meta"] = dict(meta) if meta else {}
        blob = pickle.dumps(payload, protocol=4)
        digest = hashlib.sha256(blob).digest()
        header = (
            self._CKPT_MAGIC
            + struct.pack("<I", self._CKPT_VERSION)
            + digest
            + struct.pack("<Q", len(blob))
        )
        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load_state(cls, path, engine: Optional[KernelEngine] = None
                   ) -> "StreamingKeyBin2":
        """Restore a checkpoint written by :meth:`save_state`.

        The restored instance is bit-identical in behavior: the next
        ``partial_fit`` produces the same histograms, key counters and —
        after ``refresh()`` — the same labels as the uninterrupted run.
        Raises :class:`~repro.errors.CheckpointError` on a missing,
        truncated, corrupt, or future-versioned file.
        """
        import hashlib
        import pickle
        import struct
        from pathlib import Path

        from repro.errors import CheckpointError

        head_len = len(cls._CKPT_MAGIC) + 4 + 32 + 8
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if len(raw) < head_len or not raw.startswith(cls._CKPT_MAGIC):
            raise CheckpointError(f"{path} is not a streaming checkpoint")
        off = len(cls._CKPT_MAGIC)
        (version,) = struct.unpack_from("<I", raw, off)
        if version > cls._CKPT_VERSION:
            raise CheckpointError(
                f"{path} has checkpoint version {version}; this build reads "
                f"<= {cls._CKPT_VERSION}"
            )
        digest = raw[off + 4 : off + 36]
        (blob_len,) = struct.unpack_from("<Q", raw, off + 36)
        blob = raw[head_len : head_len + blob_len]
        if len(blob) != blob_len or hashlib.sha256(blob).digest() != digest:
            raise CheckpointError(
                f"{path} is truncated or corrupt (integrity check failed)"
            )
        payload = pickle.loads(blob)
        if payload.get("format") != cls._CKPT_FORMAT:
            raise CheckpointError(f"{path} carries unknown format "
                                  f"{payload.get('format')!r}")
        config = dict(payload["config"])
        seed = config.pop("seed", None)
        skb = cls(seed=seed, engine=engine, **config)
        skb.n_seen_ = int(payload["n_seen"])
        skb.n_seen_delta_ = int(payload["n_seen_delta"])
        skb.n_own_ = int(payload["n_own"])
        if payload["n_features_in"] is not None:
            skb.n_features_in_ = int(payload["n_features_in"])
        if payload["states"] is not None:
            states: List[_ProjectionState] = []
            for sd in payload["states"]:
                space = SpaceRange(sd["r_min"], sd["r_max"])
                st = _ProjectionState(
                    sd["matrix"],
                    space,
                    sd["depths"],
                    sd["key_capacity"],
                    adaptive=skb.adaptive,
                )
                for d in st.depths:
                    st.hist[d] = np.asarray(sd["hist"][d], dtype=np.int64)
                    st.hist_delta[d] = np.asarray(sd["hist_delta"][d], dtype=np.int64)
                    st.hist_local[d] = np.asarray(sd["hist_local"][d], dtype=np.int64)
                st.keys = KeyCounter.from_state_dict(sd["keys"])
                st.keys_delta = KeyCounter.from_state_dict(sd["keys_delta"])
                st.keys_local = KeyCounter.from_state_dict(sd["keys_local"])
                st.n_points = int(sd["n_points"])
                # v2 adaptive/drift fields; v1 checkpoints fall back to the
                # fixed-range interpretation (level-0 grid == the stored
                # space, need envelope == the grid, no sketches/detector).
                if sd.get("base_r_min") is not None:
                    st.base_space = SpaceRange(sd["base_r_min"], sd["base_r_max"])
                st.levels = np.asarray(
                    sd.get("levels", np.zeros(space.n_dims)), dtype=np.int64
                )
                st.need_lo = np.asarray(
                    sd.get("need_lo", space.r_min), dtype=np.float64
                ).copy()
                st.need_hi = np.asarray(
                    sd.get("need_hi", space.r_max), dtype=np.float64
                ).copy()
                st.bin_epoch = int(sd.get("bin_epoch", 0))
                st.rebin_count = int(sd.get("rebin_count", 0))
                st.oor_low = np.asarray(
                    sd.get("oor_low", np.zeros(space.n_dims)), dtype=np.int64
                ).copy()
                st.oor_high = np.asarray(
                    sd.get("oor_high", np.zeros(space.n_dims)), dtype=np.int64
                ).copy()
                sketches = sd.get("sketches")
                if sketches is not None:
                    st.sketches = [
                        TailSketch.from_state_dict(s) for s in sketches
                    ]
                drift_sd = sd.get("drift")
                if drift_sd is not None:
                    st.drift = WindowDriftDetector.from_state_dict(drift_sd)
                elif skb.drift_window <= 0:
                    st.drift = None
                states.append(st)
            skb._states = states
        skb.restored_meta_ = dict(payload.get("meta", {}))
        return skb

    # -- inference -----------------------------------------------------------------

    @property
    def n_clusters_(self) -> int:
        if self.model_ is None:
            raise NotFittedError("call refresh() before reading n_clusters_")
        return self.model_.n_clusters

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Label points with the current model (−1 = cell unseen so far)."""
        if self.model_ is None:
            raise NotFittedError("call refresh() before predict()")
        return self.model_.predict(x, engine=self.engine)

"""Primary clusters and the global cluster table (paper §3, step 5).

A *primary cluster* is a maximal run of bins between two cuts along one
dimension — a partial, single-dimension clustering. The cross product of
primary clusters forms the interval grid; the *occupied* cells of that grid
are the global clusters. Points map to cells through their keys alone, so
assignment is embarrassingly parallel and the cell table (a few integers
per cluster) is all that ranks must share to label consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.kernels.labels import check_cuts, interval_id_table, intervals_for_bins

__all__ = ["PrimaryPartition", "GlobalClusterTable", "MAX_CELLS", "cell_space_error"]

#: Largest interval grid whose cells all get distinct int64 codes.
MAX_CELLS = int(np.iinfo(np.int64).max)
#: ``from_points`` tallies codes, and ``lookup`` labels them, through a dense
#: array while their range is at most this many values per point: the array
#: then stays a small multiple of the input, and a linear pass beats a sort.
DENSE_CODES_PER_POINT = 4


@dataclass(frozen=True)
class PrimaryPartition:
    """Per-dimension cut sets at a fixed depth.

    Attributes
    ----------
    depth:
        Bin-tree depth the cuts refer to (bins are in ``[0, 2^depth)``).
    cuts:
        One sorted int64 array per kept dimension.
    """

    depth: int
    cuts: tuple

    def __init__(self, depth: int, cuts: Sequence[np.ndarray]):
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        clean = tuple(np.asarray(c, dtype=np.int64).ravel() for c in cuts)
        check_cuts(clean, 1 << depth)
        object.__setattr__(self, "depth", int(depth))
        object.__setattr__(self, "cuts", clean)

    @property
    def n_dims(self) -> int:
        return len(self.cuts)

    @property
    def n_intervals(self) -> np.ndarray:
        """Primary-cluster count per dimension."""
        return np.array([c.size + 1 for c in self.cuts], dtype=np.int64)

    @property
    def n_cells(self) -> int:
        """Exact size of the full interval grid (occupied or not).

        A Python int, so it never wraps; compare it with :data:`MAX_CELLS`
        (or read :attr:`codes_fit`) before packing cells into int64 codes.
        """
        return math.prod(c.size + 1 for c in self.cuts)

    @cached_property
    def interval_ids(self) -> np.ndarray:
        """(n_dims × 2^depth) interval id of every bin, built on first use
        (the fit tail), never for a partition that only predicts."""
        return interval_id_table(self.cuts, 1 << self.depth)

    @property
    def codes_fit(self) -> bool:
        """Whether every cell of the grid has a distinct int64 code."""
        return self.n_cells <= MAX_CELLS

    @property
    def radix_weights(self) -> np.ndarray:
        """Mixed-radix place value of each dimension's interval id:
        ``code = Σ_j interval_j · weight_j`` with ``weight_j`` the product
        of the interval counts of the dimensions after ``j``.

        Raises :class:`ValidationError` when the grid has more cells than
        int64 codes can tell apart, instead of letting codes wrap and
        collide.
        """
        if not self.codes_fit:
            raise ValidationError(
                f"cell space of {self.n_cells} cells (interval counts "
                f"{self.n_intervals.tolist()}) exceeds int64 cell codes"
            )
        weights = [1] * self.n_dims
        for j in range(self.n_dims - 2, -1, -1):
            weights[j] = weights[j + 1] * (self.cuts[j + 1].size + 1)
        return np.array(weights, dtype=np.int64)

    def intervals_for(self, bins: np.ndarray) -> np.ndarray:
        """Map (M × n_dims) bin indices to per-dimension interval ids."""
        bins = np.asarray(bins)
        if bins.ndim != 2 or bins.shape[1] != self.n_dims:
            raise ValidationError(
                f"expected (M × {self.n_dims}) bins, got {bins.shape}"
            )
        return intervals_for_bins(bins, self.cuts)

    def cell_codes(self, intervals: np.ndarray) -> np.ndarray:
        """Mixed-radix code of each point's grid cell."""
        return np.asarray(intervals).astype(np.int64) @ self.radix_weights

    def decode_cells(self, codes: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`cell_codes`: (|codes| × n_dims) interval ids."""
        codes = np.asarray(codes, dtype=np.int64).reshape(-1, 1)
        return codes // self.radix_weights % self.n_intervals

    def code_table(self, bin_depth: Optional[int] = None) -> np.ndarray:
        """(n_dims × 2^bin_depth) table of radix-weighted interval ids.

        Entry ``[j, b]`` is ``weight_j`` times the interval holding bin
        ``b`` of a ``bin_depth`` grid (default: this partition's depth;
        a deeper bin maps through its depth-``depth`` prefix), so a cell
        code is a sum of one gather per dimension.
        """
        bin_depth = self.depth if bin_depth is None else int(bin_depth)
        if bin_depth < self.depth:
            raise ValidationError(
                f"bin_depth {bin_depth} is shallower than the partition depth {self.depth}"
            )
        table = self.interval_ids * self.radix_weights[:, None]
        return np.repeat(table, 1 << (bin_depth - self.depth), axis=1)

    def codes_for_bins(
        self, bins: np.ndarray, bin_depth: Optional[int] = None
    ) -> np.ndarray:
        """Cell code of every row of (M × n_dims) bin indices.

        ``bins`` are indices on a ``bin_depth`` grid (default: this
        partition's depth); deeper bins are reduced to their prefix
        through :meth:`code_table`, never shifted row by row.
        """
        bins = np.asarray(bins)
        if bins.ndim != 2 or bins.shape[1] != self.n_dims:
            raise ValidationError(
                f"expected (M × {self.n_dims}) bins, got {bins.shape}"
            )
        table = self.code_table(bin_depth)
        # One whole-column gather per dimension: faster than one flat
        # gather, which needs an (M × n_dims) int64 index array. A
        # dimension without cuts adds zero to every code.
        cut_dims = np.flatnonzero(self.n_intervals > 1)
        if cut_dims.size == 0:
            return np.zeros(bins.shape[0], dtype=np.int64)
        codes = table[cut_dims[0]].take(bins[:, cut_dims[0]])
        for j in cut_dims[1:]:
            codes += table[j].take(bins[:, j])
        return codes


class GlobalClusterTable:
    """Dense labels for the occupied cells of the interval grid.

    The table is the sorted array of occupied cell codes; a point's label is
    the position of its cell code in that array (``-1`` for cells never seen
    during fit — novel regions at predict time).
    """

    def __init__(self, codes: np.ndarray, sizes: Optional[np.ndarray] = None):
        codes = np.asarray(codes, dtype=np.int64).ravel()
        if codes.size and np.any(np.diff(codes) <= 0):
            order = np.argsort(codes)
            codes = codes[order]
            if sizes is not None:
                sizes = np.asarray(sizes, dtype=np.int64).ravel()[order]
            if np.any(np.diff(codes) == 0):
                raise ValidationError("cell codes must be unique")
        self.codes = codes
        self.sizes = (
            None if sizes is None else np.asarray(sizes, dtype=np.int64).ravel()
        )
        if self.sizes is not None and self.sizes.shape != self.codes.shape:
            raise ValidationError("sizes must align with codes")

    @classmethod
    def from_points(
        cls, codes_of_points: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> "GlobalClusterTable":
        """Build the table from the per-point cell codes seen during fit.

        ``weights`` gives each code's multiplicity (a key's point count,
        always positive); by default every code counts once. Codes
        spanning no more than :data:`DENSE_CODES_PER_POINT` values per
        point are tallied with one dense ``bincount``; sparser ones are
        sorted with ``np.unique``. Either way the table is the same.
        """
        codes = np.asarray(codes_of_points, dtype=np.int64).ravel()
        if _dense(codes):
            # Weighted sums below 2^53 are exact in float64, and positive
            # weights make the occupied cells the nonzero sums.
            tally = np.bincount(
                codes, None if weights is None else np.asarray(weights, dtype=np.int64)
            )
            occupied = np.flatnonzero(tally)
            return cls(occupied, tally[occupied].astype(np.int64))
        if weights is None:
            occupied, sizes = np.unique(codes, return_counts=True)
            return cls(occupied, sizes)
        occupied, inverse = np.unique(codes, return_inverse=True)
        sizes = np.zeros(occupied.size, dtype=np.int64)
        np.add.at(sizes, inverse, np.asarray(weights, dtype=np.int64))
        return cls(occupied, sizes)

    @property
    def n_clusters(self) -> int:
        return int(self.codes.size)

    def lookup(self, codes_of_points: np.ndarray) -> np.ndarray:
        """Labels in ``[0, n_clusters)``; ``-1`` marks unseen cells.

        Many codes spanning no more than :data:`DENSE_CODES_PER_POINT`
        values per code map through a dense position array, one gather;
        others (a one-row predict among them) take a binary search each.
        """
        pts = np.asarray(codes_of_points, dtype=np.int64)
        if self.codes.size == 0:
            return np.full(pts.shape, -1, dtype=np.int64)
        if pts.size > 1 and _dense(pts.ravel()):
            top = int(pts.max())
            lo, hi = np.searchsorted(self.codes, [0, top + 1])
            position = np.full(top + 1, -1, dtype=np.int64)
            position[self.codes[lo:hi]] = np.arange(lo, hi)
            return position[pts]
        pos = np.searchsorted(self.codes, pts)
        pos_clipped = np.clip(pos, 0, self.codes.size - 1)
        hit = self.codes[pos_clipped] == pts
        labels = np.where(hit, pos_clipped, -1)
        return labels.astype(np.int64)

    def merge(self, other: "GlobalClusterTable") -> "GlobalClusterTable":
        """Union of two tables (distributed fit: cells seen on any rank)."""
        if other.n_clusters == 0:
            return GlobalClusterTable(self.codes.copy(),
                                      None if self.sizes is None else self.sizes.copy())
        all_codes = np.concatenate([self.codes, other.codes])
        if self.sizes is not None and other.sizes is not None:
            all_sizes = np.concatenate([self.sizes, other.sizes])
            codes, inverse = np.unique(all_codes, return_inverse=True)
            sizes = np.zeros(codes.size, dtype=np.int64)
            np.add.at(sizes, inverse, all_sizes)
            return GlobalClusterTable(codes, sizes)
        codes = np.unique(all_codes)
        return GlobalClusterTable(codes)


def _dense(codes: np.ndarray) -> bool:
    """Whether 1-D ``codes`` span at most :data:`DENSE_CODES_PER_POINT`
    non-negative values per code, so an array over their range stays a
    small multiple of the input and a linear pass beats a sort."""
    return bool(
        codes.size and codes.min() >= 0
        and codes.max() < DENSE_CODES_PER_POINT * codes.size
    )


def cell_space_error(overflowed: Sequence[tuple]) -> ValidationError:
    """The error a fit raises when no candidate's grid fits int64 codes.

    ``overflowed`` holds one ``(trial, kept_dims, partition)`` per skipped
    candidate; the message names each one's kept dimensions and interval
    counts, the two things that set the grid size.
    """
    described = "; ".join(
        f"projection {trial} depth {p.depth}: dims {np.flatnonzero(kept).tolist()} "
        f"with interval counts {p.n_intervals.tolist()} ({p.n_cells} cells)"
        for trial, kept, p in overflowed
    )
    return ValidationError(
        f"every candidate's cell grid exceeds int64 cell codes ({MAX_CELLS}): "
        f"{described}"
    )


"""Tests for primary partitions and the global cluster table."""

import numpy as np
import pytest

from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.errors import ValidationError


class TestPrimaryPartition:
    def test_n_intervals(self):
        p = PrimaryPartition(4, [np.array([3, 7]), np.empty(0, np.int64)])
        assert p.n_intervals.tolist() == [3, 1]
        assert p.n_cells == 3

    def test_cuts_validated(self):
        with pytest.raises(ValidationError):
            PrimaryPartition(3, [np.array([7])])  # cut at last bin edge
        with pytest.raises(ValidationError):
            PrimaryPartition(3, [np.array([-1])])
        with pytest.raises(ValidationError):
            PrimaryPartition(3, [np.array([2, 2])])  # non-increasing

    def test_intervals_for_shape_check(self):
        p = PrimaryPartition(3, [np.array([3])])
        with pytest.raises(ValidationError):
            p.intervals_for(np.zeros((4, 2), dtype=np.int32))

    def test_cell_codes_decode_round_trip(self, rng):
        p = PrimaryPartition(
            5, [np.array([10, 20]), np.array([15]), np.empty(0, np.int64)]
        )
        iv = np.stack(
            [
                rng.integers(0, 3, 50),
                rng.integers(0, 2, 50),
                rng.integers(0, 1, 50),
            ],
            axis=1,
        )
        codes = p.cell_codes(iv)
        decoded = p.decode_cells(np.unique(codes))
        # Every decoded row must correspond to one of the original rows.
        orig = {tuple(r) for r in iv}
        for row in decoded:
            assert tuple(row) in orig

    def test_codes_injective(self, rng):
        p = PrimaryPartition(4, [np.array([5]), np.array([3, 9])])
        iv = np.stack([rng.integers(0, 2, 100), rng.integers(0, 3, 100)], axis=1)
        codes = p.cell_codes(iv)
        uniq_rows = np.unique(iv, axis=0).shape[0]
        assert np.unique(codes).size == uniq_rows


class TestGlobalClusterTable:
    def test_from_points(self):
        codes = np.array([5, 3, 5, 9, 3, 3])
        t = GlobalClusterTable.from_points(codes)
        assert t.codes.tolist() == [3, 5, 9]
        assert t.sizes.tolist() == [3, 2, 1]
        assert t.n_clusters == 3

    def test_lookup_dense_labels(self):
        t = GlobalClusterTable.from_points(np.array([10, 20, 10]))
        labels = t.lookup(np.array([10, 20, 30]))
        assert labels.tolist() == [0, 1, -1]

    def test_lookup_empty_table(self):
        t = GlobalClusterTable(np.empty(0, dtype=np.int64))
        assert t.lookup(np.array([1, 2])).tolist() == [-1, -1]

    def test_lookup_value_below_first_code(self):
        t = GlobalClusterTable(np.array([5, 9]))
        assert t.lookup(np.array([1])).tolist() == [-1]

    def test_merge_union_and_sizes(self):
        a = GlobalClusterTable.from_points(np.array([1, 1, 2]))
        b = GlobalClusterTable.from_points(np.array([2, 3]))
        merged = a.merge(b)
        assert merged.codes.tolist() == [1, 2, 3]
        assert merged.sizes.tolist() == [2, 2, 1]

    def test_merge_with_empty(self):
        a = GlobalClusterTable.from_points(np.array([4]))
        empty = GlobalClusterTable(np.empty(0, dtype=np.int64))
        assert a.merge(empty).codes.tolist() == [4]
        assert empty.merge(a).codes.tolist() == [4]

    def test_unsorted_codes_sorted(self):
        t = GlobalClusterTable(np.array([9, 3, 5]), np.array([1, 2, 3]))
        assert t.codes.tolist() == [3, 5, 9]
        assert t.sizes.tolist() == [2, 3, 1]

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValidationError):
            GlobalClusterTable(np.array([3, 3]))

    def test_sizes_alignment_checked(self):
        with pytest.raises(ValidationError):
            GlobalClusterTable(np.array([1, 2]), np.array([1]))

    def test_from_points_weighted_sizes(self):
        t = GlobalClusterTable.from_points(np.array([7, 2, 7]), np.array([5, 1, 2]))
        assert t.codes.tolist() == [2, 7]
        assert t.sizes.tolist() == [1, 7]

    def test_from_points_dense_and_sparse_agree(self, rng):
        codes = rng.integers(0, 50, 400)
        dense = GlobalClusterTable.from_points(codes)  # range < 4 × points
        sparse = GlobalClusterTable.from_points(codes * 1_000_003)
        assert dense.sizes.tolist() == sparse.sizes.tolist()
        assert (dense.codes * 1_000_003).tolist() == sparse.codes.tolist()

    def test_lookup_dense_and_sparse_agree(self, rng):
        # Table codes below, inside and above the query range; queries
        # dense enough for the position-array path, in a 2-D shape.
        t = GlobalClusterTable(np.array([-7, 0, 3, 11, 40, 10**9]))
        queries = rng.integers(0, 60, (20, 20))
        position = {code: i for i, code in enumerate(t.codes.tolist())}
        want = [[position.get(q, -1) for q in row] for row in queries.tolist()]
        assert t.lookup(queries).tolist() == want
        # The same cells spread out take the binary-search path.
        spread = GlobalClusterTable(t.codes * 1_000_003)
        assert spread.lookup(queries * 1_000_003).tolist() == want
        assert t.lookup(np.array([3])).tolist() == [2]
        assert t.lookup(np.array([4])).tolist() == [-1]


def _three_modes_per_dim(n_dims, n_points=3000, seed=0):
    """Every dimension has three well-separated modes, so every dimension
    gets two cuts and the grid has 3^n_dims cells."""
    rng = np.random.default_rng(seed)
    centres = rng.integers(0, 3, (n_points, n_dims)) * 10.0
    return centres + rng.normal(0.0, 0.3, (n_points, n_dims))


class TestCellCodeOverflow:
    """48 dims × 3 intervals is 3^48 ≈ 8e22 cells: int64 codes would wrap
    (to 2.7e18 and colliding codes), so packing must refuse instead."""

    def _partition(self, n_dims=48):
        return PrimaryPartition(4, [np.array([4, 9])] * n_dims)

    def test_n_cells_is_exact(self):
        p = self._partition()
        assert p.n_cells == 3**48
        assert not p.codes_fit
        assert self._partition(39).codes_fit  # 3^39 < 2^63 - 1

    def test_cell_codes_and_decode_raise(self):
        p = self._partition()
        with pytest.raises(ValidationError, match="interval counts"):
            p.cell_codes(np.zeros((2, 48), dtype=np.int64))
        with pytest.raises(ValidationError, match="exceeds int64"):
            p.decode_cells(np.array([0, 1]))
        with pytest.raises(ValidationError, match="exceeds int64"):
            p.codes_for_bins(np.zeros((2, 48), dtype=np.int64))

    def test_largest_fitting_grid_round_trips(self, rng):
        p = self._partition(39)
        iv = rng.integers(0, 3, (100, 39))
        iv[0] = 2  # the largest code, 3^39 - 1
        assert np.array_equal(p.decode_cells(p.cell_codes(iv)), iv)

    def test_batch_fit_raises_naming_dims_and_counts(self):
        from repro.core.estimator import KeyBin2

        x = _three_modes_per_dim(48)
        kb = KeyBin2(projection="none", collapse=False, candidate_depths=(5, 6),
                     n_projections=1, seed=0)
        with pytest.raises(ValidationError, match=r"interval counts \[3, 3, 3"):
            kb.fit(x)

    def test_batch_fit_skips_overflowing_depths(self):
        from repro.core.estimator import KeyBin2

        x = _three_modes_per_dim(48)
        kb = KeyBin2(projection="none", collapse=False, candidate_depths=(1, 5),
                     n_projections=1, seed=0).fit(x)
        # Depth 5 overflows and is skipped; two bins per dim admit no cut.
        assert kb.model_.depth == 1
        assert kb.n_clusters_ == 1

    def test_streaming_refresh_raises(self):
        from repro.core.streaming import StreamingKeyBin2

        skb = StreamingKeyBin2(projection="none", collapse=False,
                               candidate_depths=(5, 6), n_projections=1,
                               feature_range=(-2.0, 22.0), seed=0)
        skb.partial_fit(_three_modes_per_dim(48))
        with pytest.raises(ValidationError, match="dims \\[0, 1, 2"):
            skb.refresh()

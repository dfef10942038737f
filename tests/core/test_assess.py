"""Tests for the histogram-space Calinski–Harabasz index."""

import numpy as np
import pytest

from repro.core.assess import _interval_stats_rows, _percentile_bins, histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.errors import ValidationError
from repro.kernels.keys import bin_indices
from tests.kernels.oracle import accumulate_histogram
from tests.property import tail_oracle
from tests.metrics.dispersion import calinski_harabasz_points


def marginal_percentile_bin(counts):
    """Bin index of the mass median of a 1-D histogram."""
    return int(_percentile_bins(np.asarray(counts, dtype=np.float64)[None, :], 50.0)[0])


def interval_stats(counts, cuts):
    """(modes, masses, within) of a 1-D histogram: a one-row batch pass."""
    modes, masses, within, _ = _interval_stats_rows(
        np.asarray(counts, dtype=np.float64)[None, :],
        [np.asarray(cuts, dtype=np.int64)],
    )
    return modes, masses, within


class TestMarginalPercentileBin:
    def test_median_of_symmetric(self):
        counts = np.zeros(10)
        counts[4] = counts[5] = 50
        assert marginal_percentile_bin(counts) in (4, 5)

    def test_concentrated(self):
        counts = np.zeros(10)
        counts[7] = 100
        assert marginal_percentile_bin(counts) == 7

    def test_empty_returns_middle(self):
        assert marginal_percentile_bin(np.zeros(10)) == 5


class TestIntervalStats:
    def test_modes_and_masses(self):
        counts = np.array([0, 10, 5, 0, 0, 2, 20, 3], dtype=float)
        modes, masses, within = interval_stats(counts, np.array([3]))
        assert modes.tolist() == [1, 6]
        assert masses.tolist() == [15.0, 25.0]
        assert within[0] > 0  # bin 2 contributes (2-1)^2 * 5

    def test_no_cuts_single_interval(self):
        counts = np.array([1.0, 2.0, 3.0])
        modes, masses, within = interval_stats(counts, np.empty(0, np.int64))
        assert modes.tolist() == [2]
        assert masses.tolist() == [6.0]

    def test_empty_interval_mode_midpoint(self):
        counts = np.array([5.0, 0.0, 0.0, 0.0])
        modes, masses, _ = interval_stats(counts, np.array([0]))
        assert masses[1] == 0.0
        assert 1 <= modes[1] <= 3


def _build_case(x, depth=6):
    space = SpaceRange.from_data(x, margin=0.05)
    bins = bin_indices(x, space.r_min, space.r_max, depth)
    counts = accumulate_histogram(bins, 1 << depth)
    cuts = [find_cuts(counts[j]) for j in range(x.shape[1])]
    partition = PrimaryPartition(depth, cuts)
    iv = partition.intervals_for(bins)
    codes = partition.cell_codes(iv)
    table = GlobalClusterTable.from_points(codes)
    labels = table.lookup(codes)
    score = histogram_ch_index(counts, partition.cuts,
                               partition.decode_cells(table.codes))
    return counts, partition, table, labels, score


class TestHistogramCHIndex:
    def test_single_cluster_minus_inf(self):
        counts = np.ones((2, 8))
        cuts = [np.empty(0, np.int64)] * 2
        cells = np.zeros((1, 2), dtype=np.int64)
        assert histogram_ch_index(counts, cuts, cells) == float("-inf")

    def test_good_partition_scores_higher_than_bad(self, rng):
        # Two well-separated clusters in 1-D (embedded in 2-D).
        a = rng.normal(-10, 1, (500, 2))
        b = rng.normal(10, 1, (500, 2))
        x = np.concatenate([a, b])
        counts, partition, table, labels, good = _build_case(x)
        # Bad: arbitrary cut in the middle of one cluster.
        depth = partition.depth
        bad_cuts = [np.array([5]), np.array([5])]
        bad_partition = PrimaryPartition(depth, bad_cuts)
        space = SpaceRange.from_data(x, margin=0.05)
        bins = bin_indices(x, space.r_min, space.r_max, depth)
        iv = bad_partition.intervals_for(bins)
        codes = bad_partition.cell_codes(iv)
        bad_table = GlobalClusterTable.from_points(codes)
        bad = histogram_ch_index(counts, bad_partition.cuts,
                                 bad_partition.decode_cells(bad_table.codes))
        assert good > bad

    def test_ranking_agrees_with_point_space(self, rng):
        """The histogram-space index must rank partitions like the exact
        point-space CH (the property §3.3 claims)."""
        a = rng.normal(-8, 1, (400, 2))
        b = rng.normal(8, 1, (400, 2))
        c = rng.normal([0, 14], 1, (400, 2))
        x = np.concatenate([a, b, c])
        counts, partition, table, labels, hist_score = _build_case(x)
        point_score_good = calinski_harabasz_points(x, labels)
        # Random labels score terribly in point space and must also score
        # terribly (or be unscorable) in histogram space.
        rng2 = np.random.default_rng(1)
        rand_labels = rng2.integers(0, 3, x.shape[0])
        point_score_bad = calinski_harabasz_points(x, rand_labels)
        assert point_score_good > point_score_bad
        assert np.isfinite(hist_score) and hist_score > 0

    def test_two_cluster_guard_nonzero(self):
        """|Q| = 2 must not be hard-zeroed by the log factor (deviation
        note in the module docstring)."""
        counts = np.zeros((1, 16))
        counts[0, 2] = 100
        counts[0, 12] = 100
        cuts = [np.array([7])]
        cells = np.array([[0], [1]])
        score = histogram_ch_index(counts, cuts, cells)
        assert score > 0

    def test_paper_exact_two_cluster_zero(self):
        """The paper's literal ``log2(|Q|−1)`` factor, kept by the test
        oracle, zeroes every 2-cluster model (EXPERIMENTS deviation 4)."""
        counts = np.zeros((1, 16))
        counts[0, 1:4] = [20, 100, 20]   # spread → nonzero within-dispersion
        counts[0, 11:14] = [20, 100, 20]
        cuts, cells = [np.array([7])], np.array([[0], [1]])
        assert tail_oracle.histogram_ch_index(counts, cuts, cells, paper_exact=True) == 0.0
        assert histogram_ch_index(counts, cuts, cells) > 0.0

    def test_perfectly_tight_clusters_inf(self):
        counts = np.zeros((1, 8))
        counts[0, 1] = 50
        counts[0, 6] = 50
        score = histogram_ch_index(counts, [np.array([3])], np.array([[0], [1]]))
        assert score == float("inf")

    def test_validation(self):
        with pytest.raises(ValidationError):
            histogram_ch_index(np.zeros(4), [], np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ValidationError):
            histogram_ch_index(
                np.zeros((2, 4)), [np.empty(0)], np.zeros((2, 2), dtype=np.int64)
            )
        with pytest.raises(ValidationError):
            # cell interval index out of range
            histogram_ch_index(
                np.ones((1, 4)), [np.array([1])], np.array([[5], [0]])
            )

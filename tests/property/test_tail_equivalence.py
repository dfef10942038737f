"""The array-pass histogram→model tail equals the per-dimension oracle.

``tail_oracle`` keeps the loop forms of cut finding, interval statistics,
bin→interval mapping and table building. Here the runtime versions must
reproduce them exactly: the same cuts, the same CH scores to the last bit,
the same cell tables, and, with the oracle patched into every entry point
of the shared tail (``repro.core.tail``, which every fit path calls), the
same model fingerprints.
"""

from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.tail as tail_mod
from repro.core.assess import (
    _interval_stats_rows,
    _percentile_bins,
    histogram_ch_index,
    histogram_ch_scores,
)
from repro.core.distributed import fit_distributed
from repro.core.estimator import KeyBin2
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
import repro.core.streaming as streaming_mod
from repro.core.streaming import StreamingKeyBin2
from repro.data.gaussians import gaussian_mixture
from tests.property import tail_oracle as oracle

COMMON = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def histogram_stacks(draw, max_rows=6):
    """(R × B) whole-number histograms, B in 1..256, mixing random rows,
    all-zero rows, plateaus (runs of equal counts) and sparse rows."""
    n_bins = draw(st.integers(1, 256))
    n_rows = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["random", "zeros", "plateau", "sparse"]))
        if kind == "zeros":
            row = np.zeros(n_bins)
        elif kind == "plateau":
            width = draw(st.integers(1, 32))
            row = np.repeat(rng.integers(0, 6, n_bins // width + 1), width)[:n_bins]
        elif kind == "sparse":
            row = (rng.random(n_bins) < 0.2) * rng.integers(1, 1000, n_bins)
        else:
            row = rng.integers(0, 1000, n_bins)
        rows.append(row.astype(np.float64))
    return np.array(rows)


class TestCuts:
    @COMMON
    @given(histogram_stacks(), st.sampled_from([0.0, 0.05, 0.10, 0.5]),
           st.sampled_from(["ma", "kde"]))
    def test_stack_matches_per_row_oracle(self, counts, min_prominence, smoother):
        got = find_cuts(counts, min_prominence=min_prominence, smoother=smoother)
        assert len(got) == counts.shape[0]
        for row, cuts in zip(counts, got):
            want = oracle.find_cuts_1d(row, min_prominence=min_prominence,
                                       smoother=smoother)
            assert cuts.dtype == np.int64
            assert np.array_equal(cuts, want)
            one = find_cuts(row, min_prominence=min_prominence, smoother=smoother)
            assert np.array_equal(one, want)


def _random_cells(rng, cuts, n_cells):
    return np.stack([rng.integers(0, c.size + 1, n_cells) for c in cuts], axis=1)


class TestScoring:
    @COMMON
    @given(histogram_stacks(), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_ch_index_matches_oracle(self, counts, n_cells, seed):
        rng = np.random.default_rng(seed)
        cuts = find_cuts(counts)
        stats = _interval_stats_rows(np.asarray(counts, dtype=np.float64), cuts)
        offsets = list(stats[3]) + [stats[0].size]
        for j, c in enumerate(cuts):
            rows = slice(offsets[j], offsets[j + 1])
            for got, want in zip(stats[:3], oracle.interval_stats(counts[j], c)):
                assert np.array_equal(got[rows], want)
        assert _percentile_bins(counts, 50.0).tolist() == [
            oracle.marginal_percentile_bin(row) for row in counts]
        cells = _random_cells(rng, cuts, n_cells)
        got = histogram_ch_index(counts, cuts, cells)
        want = oracle.histogram_ch_index(counts, cuts, cells)
        assert repr(got) == repr(want)

    @COMMON
    @given(histogram_stacks(), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_stacked_scores_match_oracle(self, counts, n_cells, seed):
        """Candidates over consecutive row ranges of one stack score as
        each would alone."""
        rng = np.random.default_rng(seed)
        cuts = find_cuts(counts)
        n_rows = counts.shape[0]
        inner = rng.choice(np.arange(1, n_rows), rng.integers(0, n_rows), replace=False)
        edges = [0, *np.sort(inner).tolist(), n_rows]
        spans = list(zip(edges[:-1], edges[1:]))
        cells = [_random_cells(rng, cuts[lo:hi], n_cells) for lo, hi in spans]
        got = histogram_ch_scores(counts, cuts, [lo for lo, _ in spans], cells)
        want = [
            oracle.histogram_ch_index(counts[lo:hi], cuts[lo:hi], c)
            for (lo, hi), c in zip(spans, cells)
        ]
        assert repr(got) == repr(want)


class TestCellTables:
    @COMMON
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 3),
           st.integers(0, 400), st.integers(0, 2**32 - 1), st.booleans())
    def test_codes_and_tables_match_oracle(self, n_dims, depth, extra_depth,
                                           n_rows, seed, weighted):
        rng = np.random.default_rng(seed)
        n_bins = 1 << depth
        cuts = [
            np.sort(rng.choice(n_bins - 1, rng.integers(0, n_bins), replace=False))
            for _ in range(n_dims)
        ]
        partition = PrimaryPartition(depth, cuts)
        bin_depth = depth + extra_depth
        dtype = np.uint8 if bin_depth <= 8 else np.int32  # keys / bin_indices
        bins = rng.integers(0, 1 << bin_depth, (n_rows, n_dims)).astype(dtype)
        codes = partition.codes_for_bins(bins, bin_depth)
        assert np.array_equal(codes, oracle.codes_for_bins(partition, bins, bin_depth))
        weights = rng.integers(1, 50, n_rows) if weighted else None
        got = GlobalClusterTable.from_points(codes, weights)
        want = oracle.from_points(codes, weights)
        assert np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.sizes, want.sizes)
        shallow = bins.astype(np.int64) >> extra_depth
        assert np.array_equal(partition.decode_cells(codes),
                              partition.intervals_for(shallow))


# -- whole fits, with the oracle patched in versus not ------------------------


@pytest.fixture
def patch_oracle(monkeypatch):
    """Return a function that swaps every tail entry point for its oracle
    and returns the calls each oracle has taken since."""
    calls = Counter()

    def counted(fn):
        def oracle_call(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return oracle_call

    def apply():
        monkeypatch.setattr(tail_mod, "find_cuts", counted(oracle.find_cuts))
        monkeypatch.setattr(tail_mod, "cell_table", counted(oracle.cell_table))
        monkeypatch.setattr(tail_mod, "histogram_ch_scores",
                            counted(oracle.histogram_ch_scores))
        monkeypatch.setattr(PrimaryPartition, "codes_for_bins",
                            counted(oracle.codes_for_bins))
        return calls

    return apply


def _fits(x, seed):
    """Fingerprints and labels of a streaming refresh, a batch fit (both
    smoothers) and a 2-rank thread-executor SPMD fit."""
    out = []
    with patch.object(streaming_mod, "KEY_CAPACITY", 500):
        skb = StreamingKeyBin2(seed=seed)
    for batch in np.array_split(x, 2):
        skb.partial_fit(batch)
        skb.refresh()
        out.append(skb.model_.fingerprint())
    for smoother in ("ma", "kde"):
        kb = KeyBin2(seed=seed, n_projections=3, smoother=smoother).fit(x)
        out += [kb.model_.fingerprint(), kb.labels_.tolist()]
    res = fit_distributed(np.array_split(x, 2), executor="thread", seed=seed,
                          n_projections=3, consolidation="master")
    out += [res.model.fingerprint(), res.concatenated_labels().tolist()]
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_paths_match_oracle(patch_oracle, seed):
    x, _ = gaussian_mixture(n_points=3000, n_dims=12, n_clusters=4, seed=seed)
    fast = _fits(x, seed)
    calls = patch_oracle()
    assert _fits(x, seed) == fast
    # The patch bites: the fits reached every patched entry point
    # (codes_for_bins through the batch and SPMD labels).
    assert set(calls) == {"find_cuts", "cell_table", "histogram_ch_scores",
                          "codes_for_bins"}


def test_single_cell_table_is_the_all_zero_codes_table():
    """The one-cell shortcut equals tallying every key into code 0."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 1 << 7, (3, 500)).astype(np.uint8)
    partition = PrimaryPartition(5, [np.empty(0, dtype=np.int64)] * 3)
    assert partition.n_cells == 1
    for weights in (None, rng.integers(1, 50, 500)):
        got = tail_mod.cell_table(partition, keys, weights, 7)
        want = GlobalClusterTable.from_points(np.zeros(500, dtype=np.int64), weights)
        assert np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.sizes, want.sizes)
        assert got.sizes.dtype == want.sizes.dtype

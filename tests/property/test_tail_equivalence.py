"""The array-pass histogram→model tail equals the per-dimension oracle.

``tail_oracle`` keeps the loop forms of cut finding, interval statistics,
bin→interval mapping and table building. Here the runtime versions must
reproduce them exactly: the same cuts, the same CH scores to the last bit,
the same cell tables, and, with the oracle patched into every fit path,
the same model fingerprints.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.distributed as distributed_mod
import repro.core.estimator as estimator_mod
import repro.core.streaming as streaming_mod
from repro.core.assess import histogram_ch_index, interval_stats, marginal_percentile_bin
from repro.core.distributed import fit_distributed
from repro.core.estimator import KeyBin2
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
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

    @COMMON
    @given(histogram_stacks(max_rows=1), st.integers(1, 12), st.integers(0, 8))
    def test_explicit_window_and_gap(self, counts, window, min_gap):
        got = find_cuts(counts, window=window, min_gap=min_gap)[0]
        want = oracle.find_cuts_1d(counts[0], window=window, min_gap=min_gap)
        assert np.array_equal(got, want)


def _random_cells(rng, cuts, n_cells):
    return np.stack([rng.integers(0, c.size + 1, n_cells) for c in cuts], axis=1)


class TestScoring:
    @COMMON
    @given(histogram_stacks(), st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_ch_index_matches_oracle(self, counts, n_cells, seed, paper_exact):
        rng = np.random.default_rng(seed)
        cuts = find_cuts(counts)
        for j, c in enumerate(cuts):
            for got, want in zip(interval_stats(counts[j], c),
                                 oracle.interval_stats(counts[j], c)):
                assert np.array_equal(got, want)
            assert marginal_percentile_bin(counts[j]) == \
                oracle.marginal_percentile_bin(counts[j])
        cells = _random_cells(rng, cuts, n_cells)
        got = histogram_ch_index(counts, cuts, cells, paper_exact=paper_exact)
        want = oracle.histogram_ch_index(counts, cuts, cells, paper_exact=paper_exact)
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
    """Return a function that swaps every tail helper for its oracle."""

    def apply():
        for mod in (streaming_mod, estimator_mod, distributed_mod):
            monkeypatch.setattr(mod, "find_cuts", oracle.find_cuts)
            monkeypatch.setattr(mod, "histogram_ch_index", oracle.histogram_ch_index)
        monkeypatch.setattr(PrimaryPartition, "codes_for_bins", oracle.codes_for_bins)
        monkeypatch.setattr(GlobalClusterTable, "from_points",
                            staticmethod(oracle.from_points))

    return apply


def _fits(x, seed):
    """Fingerprints and labels of a streaming refresh, a batch fit (both
    smoothers) and a 2-rank thread-executor SPMD fit."""
    out = []
    skb = StreamingKeyBin2(seed=seed, key_capacity=500)
    for batch in np.array_split(x, 2):
        skb.partial_fit(batch)
        skb.refresh()
        out.append(skb.model_.fingerprint())
    for smoother in ("ma", "kde"):
        kb = KeyBin2(seed=seed, n_projections=3, smoother=smoother,
                     min_cluster_fraction=0.01).fit(x)
        out += [kb.model_.fingerprint(), kb.labels_.tolist()]
    res = fit_distributed(np.array_split(x, 2), executor="thread", seed=seed,
                          n_projections=3, consolidation="master")
    out += [res.model.fingerprint(), res.concatenated_labels().tolist()]
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_paths_match_oracle(patch_oracle, seed):
    x, _ = gaussian_mixture(n_points=3000, n_dims=12, n_clusters=4, seed=seed)
    fast = _fits(x, seed)
    patch_oracle()
    assert _fits(x, seed) == fast

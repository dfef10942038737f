"""KeyCounter folds against an oracle of the splice-merge implementation.

The oracle below keeps the key counter's earlier fold verbatim: a
``searchsorted`` plus two ``np.insert`` splices to merge, and a stable
argsort of the counts to evict. ``KeyCounter`` merges the table and the
batch as two sorted runs in one stable sort (a binary-search hit test
first only for batches small against the table) and evicts by a count
threshold; these properties pin the two to the same codes, counts and
eviction totals after every fold, including ties at the eviction
threshold, tiny capacities that overflow on every fold, counts near
10⁹, and seeded folds at the sizes ``stream-ingest`` and in-situ rounds
run.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.streaming import KeyCounter

COMMON = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _SpliceOracle:
    """The earlier uint64 fold: splice merge, stable-argsort eviction."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.codes = None
        self.counts = np.empty(0, dtype=np.int64)
        self.evicted_keys = 0
        self.evicted_points = 0

    def fold(self, codes, counts):
        uniq, inverse = np.unique(codes, return_inverse=True)
        agg = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(agg, inverse, counts)
        self._merge_sorted(uniq, agg)
        if self.codes.shape[0] > self.capacity:
            self._evict()

    def _merge_sorted(self, ucodes, ucounts):
        if self.codes is None or self.codes.shape[0] == 0:
            self.codes = ucodes.copy()
            self.counts = ucounts.astype(np.int64, copy=True)
            return
        idx = np.searchsorted(self.codes, ucodes)
        in_bounds = idx < self.codes.shape[0]
        present = np.zeros(ucodes.shape[0], dtype=bool)
        present[in_bounds] = self.codes[idx[in_bounds]] == ucodes[in_bounds]
        if present.all():
            self.counts[idx] += ucounts
            return
        self.counts[idx[present]] += ucounts[present]
        miss = ~present
        self.codes = np.insert(self.codes, idx[miss], ucodes[miss])
        self.counts = np.insert(self.counts, idx[miss], ucounts[miss])

    def _evict(self):
        order = np.argsort(self.counts, kind="stable")
        n_drop = self.codes.shape[0] - self.capacity // 2
        drop = order[:n_drop]
        self.evicted_keys += int(n_drop)
        self.evicted_points += int(self.counts[drop].sum())
        keep = np.ones(self.codes.shape[0], dtype=bool)
        keep[drop] = False
        self.codes = self.codes[keep]
        self.counts = self.counts[keep]


# A small code alphabet (so batches revisit codes) that includes both ends
# of the uint64 range; counts mix small tied values with values near 1e9.
_codes = st.one_of(
    st.integers(0, 24),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]),
)
_counts = st.one_of(st.integers(1, 3), st.integers(1, 10**9))
_batch = st.lists(st.tuples(_codes, _counts), min_size=1, max_size=24)


def _arrays(batch):
    codes = np.array([c for c, _ in batch], dtype=np.uint64)
    counts = np.array([n for _, n in batch], dtype=np.int64)
    return codes, counts


def _assert_same(kc, oracle):
    assert np.array_equal(kc._codes, oracle.codes)
    assert kc._codes.dtype == oracle.codes.dtype
    assert np.array_equal(kc._counts, oracle.counts)
    assert kc._counts.dtype == np.int64
    assert kc.evicted_keys == oracle.evicted_keys
    assert kc.evicted_points == oracle.evicted_points


@COMMON
@given(st.integers(1, 8), st.lists(_batch, min_size=1, max_size=12),
       st.booleans())
def test_fold_matches_splice_oracle(capacity, batches, presorted):
    kc = KeyCounter(capacity)
    oracle = _SpliceOracle(capacity)
    for batch in batches:
        codes, counts = _arrays(batch)
        if presorted:
            # The fused kernels' handoff: strictly increasing unique codes.
            uniq, inverse = np.unique(codes, return_inverse=True)
            agg = np.zeros(uniq.shape[0], dtype=np.int64)
            np.add.at(agg, inverse, counts)
            codes, counts = uniq, agg
        kc.merge_encoded(codes, counts, width=8)
        oracle.fold(codes, counts)
        _assert_same(kc, oracle)
        assert len(kc) <= capacity


@COMMON
@given(st.integers(1, 8), st.integers(2, 40), st.integers(1, 3))
def test_threshold_ties_drop_in_key_order(capacity, n_keys, count):
    # Every count equal: the whole table ties at the threshold, so the
    # kept cells are exactly the highest-keyed ones.
    codes = np.arange(n_keys, dtype=np.uint64)[::-1].copy()
    counts = np.full(n_keys, count, dtype=np.int64)
    kc = KeyCounter(capacity)
    oracle = _SpliceOracle(capacity)
    kc.merge_encoded(codes, counts, width=8)
    oracle.fold(codes, counts)
    _assert_same(kc, oracle)
    if n_keys > capacity:
        kept = capacity // 2
        assert kc._codes.tolist() == list(range(n_keys - kept, n_keys))


@COMMON
@given(st.integers(1, 8), st.lists(_batch, min_size=1, max_size=6))
def test_huge_counts_allocate_by_table_size_only(capacity, batches):
    # Counts near 1e9 must not allocate anything sized by the count
    # (an unclipped bincount over counts would take gigabytes).
    kc = KeyCounter(capacity)
    tracemalloc.start()
    try:
        for batch in batches:
            codes, counts = _arrays(batch)
            kc.merge_encoded(codes, counts + 10**9, width=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@COMMON
@given(st.integers(1, 12), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_columns_are_the_transposed_key_rows(width, n_keys, seed):
    """Narrow (uint64) and wide (bytes) keys decode to the rows of
    ``to_arrays``, one contiguous row per chosen dimension."""
    rng = np.random.default_rng(seed)
    kc = KeyCounter(capacity=10_000)
    kc.merge_arrays(rng.integers(0, 256, (n_keys, width)).astype(np.uint8),
                    rng.integers(1, 9, n_keys))
    dims = np.flatnonzero(rng.random(width) < 0.6)
    keys, counts = kc.to_arrays()
    cols, col_counts = kc.columns(dims)
    assert cols.dtype == np.uint8 and cols.flags.c_contiguous
    assert cols.shape == (dims.size, len(kc))
    if n_keys:
        assert np.array_equal(cols, keys[:, dims].T)
    assert np.array_equal(col_counts, counts)


# -- seeded folds at the sizes the estimator runs ---------------------------


def _searches(n_table, n_batch):
    """Whether ``KeyCounter`` takes the binary-search hit test for a fold
    (u·log2 K < K + u) rather than going straight to the merge."""
    return n_table > 0 and n_batch * np.log2(n_table) < n_table + n_batch


def _draw(rng, table, n_new, n_old):
    """``n_new`` random codes absent from ``table`` plus ``n_old`` of its
    codes, sorted unique, with counts that are mostly 1 (ties)."""
    fresh = rng.integers(0, 2**64 - 1, n_new + 64, dtype=np.uint64,
                         endpoint=True)
    if table is not None:
        fresh = fresh[~np.isin(fresh, table)]
        old = rng.choice(table, n_old, replace=False)
    else:
        old = np.empty(0, dtype=np.uint64)
    codes = np.unique(np.concatenate([fresh[:n_new], old]))
    counts = np.where(rng.random(codes.shape[0]) < 0.9, 1,
                      rng.integers(2, 6, codes.shape[0])).astype(np.int64)
    return codes, counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stream_scale_folds_match_splice_oracle(seed):
    """``stream-ingest``-sized folds: 25k-code batches, about 1% of them
    already tracked, into tables of 50k–125k codes at the default 100k
    capacity, so each fourth fold evicts with tens of thousands of cells
    tied at the threshold count."""
    rng = np.random.default_rng(seed)
    kc = KeyCounter(100_000)
    oracle = _SpliceOracle(100_000)
    sizes = []
    for i in range(9):
        n_batch = 50_000 if i == 0 else 25_000
        n_old = 0 if i == 0 else n_batch // 100
        codes, counts = _draw(rng, oracle.codes, n_batch - n_old, n_old)
        sizes.append((len(kc), codes.shape[0]))
        kc.merge_encoded(codes, counts, width=8)
        oracle.fold(codes, counts)
        _assert_same(kc, oracle)
    assert kc.evicted_keys > 2 * 70_000  # two evictions
    assert not any(_searches(k, u) for k, u in sizes)


@pytest.mark.parametrize("capacity", [100_000, 4_100])
@pytest.mark.parametrize("seed", [0, 1])
def test_insitu_scale_folds_match_splice_oracle(seed, capacity):
    """In-situ-sized folds: 100–200 codes into a 4k-code table, half of
    the folds all hits and half mostly hits (about 1 code in 10 new); the
    small capacity evicts on the hit-test path too."""
    rng = np.random.default_rng(seed)
    kc = KeyCounter(capacity)
    oracle = _SpliceOracle(capacity)
    codes, counts = _draw(rng, None, 4_000, 0)
    kc.merge_encoded(codes, counts, width=8)
    oracle.fold(codes, counts)
    for i in range(40):
        n_batch = int(rng.integers(100, 201))
        n_new = 0 if i % 2 == 0 else n_batch // 10
        assert _searches(len(kc), n_batch)
        codes, counts = _draw(rng, oracle.codes, n_new, n_batch - n_new)
        kc.merge_encoded(codes, counts, width=8)
        oracle.fold(codes, counts)
        _assert_same(kc, oracle)
    assert (kc.evicted_keys > 0) == (capacity < 5_000)

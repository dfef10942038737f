"""The one-pass collapse test equals the per-dimension loop.

``collapse_dimensions`` computes the KS statistic over each row's
occupied range and the 99%-mass support as array passes over the whole
(n_dims × B) table. The loop below measures one row at a time, slicing
out its occupied range first. On whole-number counts (histograms) every
sum is exact, so the statistics, and with them the keep-mask, must agree
to the last bit.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.collapse import (
    collapse_dimensions,
    effective_supports,
    uniformity_statistics,
)

COMMON = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def uniformity_statistic_1d(counts):
    occupied = np.flatnonzero(counts > 0)
    if occupied.size == 0:
        return 0.0
    lo, hi = occupied[0], occupied[-1]
    support = counts[lo : hi + 1]
    total = support.sum()
    if support.size <= 1 or total == 0:
        return 0.0
    ecdf = np.cumsum(support) / total
    uniform = np.arange(1, support.size + 1) / support.size
    return float(np.max(np.abs(ecdf - uniform)))


def effective_support_1d(counts):
    total = counts.sum()
    if total == 0:
        return 0
    cum = np.cumsum(np.sort(counts)[::-1])
    return int(np.searchsorted(cum, 0.99 * total) + 1)


def collapse_oracle(counts, uniform_threshold, min_support_bins):
    stats = np.array([uniformity_statistic_1d(row) for row in counts])
    support = np.array([effective_support_1d(row) for row in counts])
    keep = (stats >= uniform_threshold) & (support >= min_support_bins)
    if not keep.any():
        keep = np.zeros(counts.shape[0], dtype=bool)
        keep[int(np.argmax(stats))] = True
    return stats, support, keep


@st.composite
def count_tables(draw):
    """(R × B) whole-number tables mixing random, all-empty, single-bin,
    corner-block and spike rows."""
    n_bins = draw(st.integers(1, 512))
    n_rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["random", "empty", "single", "block", "spike"]))
        row = np.zeros(n_bins)
        if kind == "random":
            row = rng.integers(0, 10_000, n_bins).astype(np.float64)
            row[rng.random(n_bins) < 0.3] = 0
        elif kind == "single":
            row[rng.integers(n_bins)] = rng.integers(1, 10**6)
        elif kind == "block":
            lo = int(rng.integers(n_bins))
            hi = int(rng.integers(lo, n_bins)) + 1
            row[lo:hi] = rng.integers(0, 50, hi - lo)
        elif kind == "spike":
            row = rng.integers(0, 3, n_bins).astype(np.float64)
            row[rng.integers(n_bins)] = 10**7
        rows.append(row)
    return np.array(rows)


@COMMON
@given(count_tables(), st.sampled_from([0.0, 0.02, 0.05, 0.2, 1.0]),
       st.integers(0, 6))
def test_collapse_matches_per_dimension_loop(counts, threshold, min_support):
    stats, support, keep = collapse_oracle(counts, threshold, min_support)
    assert np.array_equal(uniformity_statistics(counts), stats)
    assert np.array_equal(effective_supports(counts), support)
    assert np.array_equal(collapse_dimensions(counts, threshold, min_support), keep)


def test_empty_and_single_bin_rows():
    counts = np.zeros((3, 16))
    counts[1, 7] = 100
    counts[2, 3:9] = 5
    stats, support, _ = collapse_oracle(counts, 0.05, 3)
    assert np.array_equal(uniformity_statistics(counts), stats)
    assert np.array_equal(effective_supports(counts), support)
    assert stats[0] == stats[1] == 0.0 and support[0] == 0 and support[1] == 1

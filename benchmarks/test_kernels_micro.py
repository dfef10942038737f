"""Microbenchmarks of the data-parallel kernels (the GPU-substitute layer).

These are the operations the paper offloads to CUDA; their throughput
determines the slope of every scalability curve, so they are tracked
separately from the end-to-end experiments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.core.streaming import KEY_CAPACITY, KeyCounter
from repro.kernels.fused import FusedStateSpec, fused_partial_fit
from repro.kernels.keys import bin_indices
from repro.kernels.labels import intervals_for_bins

M, N, N_RP = 50_000, 128, 8


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return rng.standard_normal((M, N))


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((N, N_RP))
    return a / np.linalg.norm(a, axis=0, keepdims=True)


@pytest.fixture(scope="module")
def projected(points, matrix):
    return points @ matrix


@pytest.fixture(scope="module")
def space(projected):
    return SpaceRange.from_data(projected)


@pytest.fixture(scope="module")
def bins(projected, space):
    return bin_indices(projected, space.r_min, space.r_max, 6)


def test_fused_ingest_kernel(benchmark, points, matrix, space):
    """Project, bin, histogram and key one batch: streaming ingest."""
    spec = FusedStateSpec(matrix, space.r_min, space.r_max, (4, 6))
    (res,) = benchmark(lambda: fused_partial_fit(points, [spec]))
    assert res.deep.sum() == M * N_RP


def test_key_assignment_kernel(benchmark, projected, space):
    out = benchmark(
        lambda: bin_indices(projected, space.r_min, space.r_max, 6)
    )
    assert out.shape == (M, N_RP)


def test_interval_mapping_kernel(benchmark, bins):
    cuts = [np.array([20, 40], dtype=np.int64)] * N_RP
    iv = benchmark(lambda: intervals_for_bins(bins, cuts))
    assert iv.max() <= 2


@pytest.fixture(scope="module")
def histogram_stack():
    """32 histograms of 256 bins: the kept rows of 4 projections × 8 dims
    at the deepest in-situ depth, each a 3-mode mixture."""
    rng = np.random.default_rng(2)
    centres = rng.integers(20, 236, (32, 3))
    points = centres[:, :, None] + rng.normal(0.0, 12.0, (32, 3, 2000))
    return np.stack([
        np.bincount(np.clip(p.ravel(), 0, 255).astype(int), minlength=256)
        for p in points
    ]).astype(np.float64)


def test_find_cuts_stack_kernel(benchmark, histogram_stack):
    cuts = benchmark(lambda: find_cuts(histogram_stack))
    assert len(cuts) == histogram_stack.shape[0]


def test_ch_index_kernel(benchmark, histogram_stack):
    counts = histogram_stack[:8]
    partition = PrimaryPartition(8, find_cuts(counts))
    rng = np.random.default_rng(3)
    bins = rng.integers(0, 256, (4000, 8))
    table = GlobalClusterTable.from_points(partition.codes_for_bins(bins))
    cells = partition.decode_cells(table.codes)
    score = benchmark(lambda: histogram_ch_index(counts, partition.cuts, cells))
    assert np.isfinite(score)


def _key_fold_case(n_table, n_batch, n_new):
    """A sorted-unique table of ``n_table`` codes and a batch of
    ``n_batch`` codes, ``n_new`` of them not in the table."""
    rng = np.random.default_rng(4)
    codes = np.unique(rng.integers(0, 2**63, n_table + n_new + 64, dtype=np.uint64))
    codes = rng.permutation(codes)
    table = np.sort(codes[:n_table])
    batch = np.sort(np.concatenate([
        codes[n_table:n_table + n_new],
        rng.choice(table, n_batch - n_new, replace=False),
    ]))
    return table, np.ones(n_table, np.int64), batch, np.ones(n_batch, np.int64)


@pytest.mark.parametrize("n_table,n_batch,n_new", [
    (75_000, 25_000, 24_750),  # stream-ingest: ~1% of a batch repeats
    (4_000, 116, 0),           # an in-situ round: every code already tracked
], ids=["stream", "insitu"])
def test_key_fold(benchmark, n_table, n_batch, n_new):
    """One ``KeyCounter`` fold of a sorted-unique batch (informational)."""
    table, table_counts, batch, batch_counts = _key_fold_case(n_table, n_batch, n_new)

    def fresh():
        kc = KeyCounter(KEY_CAPACITY)
        kc.merge_encoded(table, table_counts, width=8)
        return (kc,), {}

    kc = benchmark.pedantic(
        lambda kc: kc.merge_encoded(batch, batch_counts, width=8),
        setup=fresh, rounds=30,
    )
    assert len(kc) == n_table + n_new
    assert kc.evicted_keys == 0

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
from repro.kernels.engine import KernelEngine
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.keys import bin_indices, pack_keys
from repro.kernels.labels import intervals_for_bins
from repro.kernels.project import project_points

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


def test_projection_kernel(benchmark, points, matrix):
    out = benchmark(lambda: project_points(points, matrix))
    assert out.shape == (M, N_RP)


def test_projection_kernel_chunked(benchmark, points, matrix):
    engine = KernelEngine(block_size=8192)
    out = benchmark(lambda: project_points(points, matrix, engine=engine))
    assert out.shape == (M, N_RP)


def test_key_assignment_kernel(benchmark, projected, space):
    out = benchmark(
        lambda: bin_indices(projected, space.r_min, space.r_max, 6)
    )
    assert out.shape == (M, N_RP)


def test_histogram_kernel(benchmark, bins):
    counts = benchmark(lambda: accumulate_histogram(bins, 64))
    assert counts.sum() == M * N_RP


def test_key_packing_kernel(benchmark, bins):
    keys = benchmark(lambda: pack_keys(bins, 6))
    assert keys.shape == (M,)


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

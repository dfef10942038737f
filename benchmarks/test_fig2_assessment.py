"""Figure 2 — histogram-space model assessment on the 6-cluster layout.

Pins: the found partition recovers the 6 clusters (F1 ≈ 1), the CH index
ranks it above degenerate alternatives, and assessing a model costs
O(histogram), i.e. it does not grow with the number of points.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.experiments_figures import run_fig2
from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.kernels.fused import FusedStateSpec, fused_bin_points


def test_fig2_experiment(benchmark):
    result = benchmark(lambda: run_fig2(n_points=6000, seed=5))
    assert result.chosen_clusters == 6
    assert result.f1 > 0.95
    for score in result.alternative_scores.values():
        assert result.chosen_score > score
    benchmark.extra_info["ch_score"] = round(result.chosen_score, 1)


def test_partitioning_cost(benchmark, rng_counts=None):
    rng = np.random.default_rng(0)
    vals = np.concatenate([rng.normal(c, 3, 4000) for c in (16, 48, 90)])
    counts = np.bincount(np.clip(vals.astype(int), 0, 127), minlength=128).astype(float)
    cuts = benchmark(lambda: find_cuts(counts))
    assert cuts.size == 2


def test_assessment_cost_independent_of_points(benchmark):
    """CH evaluation must cost the same for 10× the points behind the same
    histogram resolution — the §3.3 scalability claim, asserted directly."""
    def build(n_points):
        rng = np.random.default_rng(1)
        x = np.concatenate(
            [rng.normal(-8, 1, (n_points // 2, 2)),
             rng.normal(8, 1, (n_points // 2, 2))]
        )
        space = SpaceRange.from_data(x)
        (points,) = fused_bin_points(
            x, [FusedStateSpec(None, space.r_min, space.r_max, (6,))]
        )
        counts, bins = points.deep, points.rows.T
        cuts = [find_cuts(counts[j]) for j in range(2)]
        partition = PrimaryPartition(6, cuts)
        codes = partition.cell_codes(partition.intervals_for(bins))
        table = GlobalClusterTable.from_points(codes)
        return counts, partition, partition.decode_cells(table.codes)

    small = build(2_000)
    large = build(20_000)

    def time_assess(args, reps=200):
        t0 = time.perf_counter()
        for _ in range(reps):
            histogram_ch_index(args[0], args[1].cuts, args[2])
        return time.perf_counter() - t0

    t_small = time_assess(small)
    t_large = time_assess(large)
    assert t_large < t_small * 2.5  # flat in point count

    benchmark(lambda: histogram_ch_index(large[0], large[1].cuts, large[2]))

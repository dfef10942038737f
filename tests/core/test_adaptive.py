"""Adaptive dyadic grid chain: extents, covering, exact rebin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import (
    MAX_LEVEL,
    chain_extents,
    cover_levels,
    grid_bounds,
    rebin_maps,
)


class TestChainGeometry:
    def test_level_zero_is_base_grid(self):
        r_min, r_max = grid_bounds(np.array([0.0]), np.array([1.0]),
                                   np.array([0]))
        assert r_min[0] == 0.0 and r_max[0] == 1.0

    def test_each_level_doubles_span(self):
        base_min, base_max = np.array([-1.0]), np.array([3.0])
        span0 = 4.0
        for g in range(0, 12):
            r_min, r_max = grid_bounds(base_min, base_max, np.array([g]))
            assert r_max[0] - r_min[0] == pytest.approx(span0 * 2.0**g)

    def test_alternating_extension_sides(self):
        # Step 1 extends downward, step 2 upward, step 3 downward again.
        b, t = chain_extents(np.array([0, 1, 2, 3]))
        assert b.tolist() == [0, 1, 1, 5]
        assert t.tolist() == [0, 0, 2, 2]
        # Invariant: bottom + top + 1 == 2^level (in units of span0).
        for g in range(MAX_LEVEL + 1):
            bb, tt = chain_extents(np.array([g]))
            assert int(bb[0]) + int(tt[0]) + 1 == 2**g

    def test_chain_is_nested(self):
        base_min, base_max = np.array([2.0]), np.array([5.0])
        prev = grid_bounds(base_min, base_max, np.array([0]))
        for g in range(1, 10):
            cur = grid_bounds(base_min, base_max, np.array([g]))
            assert cur[0][0] <= prev[0][0] and cur[1][0] >= prev[1][0]
            prev = cur


class TestCoverLevels:
    def test_inside_base_needs_level_zero(self):
        levels = cover_levels(np.array([0.0]), np.array([1.0]),
                              np.array([0.2]), np.array([0.9]))
        assert levels.tolist() == [0]

    def test_covers_requested_envelope(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            base_min = rng.uniform(-5, 5, size=3)
            base_max = base_min + rng.uniform(0.5, 4.0, size=3)
            need_lo = base_min - rng.uniform(0, 1e6, size=3)
            need_hi = base_max + rng.uniform(0, 1e6, size=3)
            levels = cover_levels(base_min, base_max, need_lo, need_hi)
            r_min, r_max = grid_bounds(base_min, base_max, levels)
            assert np.all(r_min <= need_lo) and np.all(r_max >= need_hi)

    def test_monotone_in_start(self):
        base_min, base_max = np.zeros(1), np.ones(1)
        lo, hi = np.array([-3.0]), np.array([1.0])
        free = cover_levels(base_min, base_max, lo, hi)
        pinned = cover_levels(base_min, base_max, lo, hi,
                              start=np.array([7]))
        assert pinned[0] == max(int(free[0]), 7)


class TestRebinMaps:
    def test_identity_when_levels_equal(self):
        maps = rebin_maps(np.array([3]), np.array([3]), depth=4)
        assert maps[0].tolist() == list(range(16))

    def test_rejects_shrinking(self):
        with pytest.raises(Exception):
            rebin_maps(np.array([3]), np.array([2]), depth=4)

    @pytest.mark.parametrize("depth", [2, 5, 8])
    def test_rebin_is_geometrically_exact(self, depth):
        """Every old bin's interval must land inside its image bin."""
        rng = np.random.default_rng(depth)
        n_bins = 1 << depth
        for _ in range(50):
            g = int(rng.integers(0, 10))
            g2 = g + int(rng.integers(0, 6))
            base_min = np.array([float(rng.uniform(-3, 3))])
            base_max = base_min + float(rng.uniform(0.25, 5.0))
            maps = rebin_maps(np.array([g]), np.array([g2]), depth)
            lo_old, hi_old = grid_bounds(base_min, base_max, np.array([g]))
            lo_new, hi_new = grid_bounds(base_min, base_max, np.array([g2]))
            w_old = (hi_old[0] - lo_old[0]) / n_bins
            w_new = (hi_new[0] - lo_new[0]) / n_bins
            for i in range(n_bins):
                j = int(maps[0][i])
                a, b = lo_old[0] + i * w_old, lo_old[0] + (i + 1) * w_old
                a2, b2 = lo_new[0] + j * w_new, lo_new[0] + (j + 1) * w_new
                assert a2 <= a + 1e-9 and b <= b2 + 1e-9

    def test_rebin_conserves_mass(self):
        rng = np.random.default_rng(1)
        depth, n_bins = 6, 64
        old = rng.integers(0, 1000, size=n_bins).astype(np.int64)
        maps = rebin_maps(np.array([2]), np.array([5]), depth)
        new = np.zeros(n_bins, dtype=np.int64)
        np.add.at(new, maps[0], old)
        assert new.sum() == old.sum()

    def test_composition_equals_direct(self):
        """rebin(g0->g1) then rebin(g1->g2) == rebin(g0->g2)."""
        depth, n_bins = 5, 32
        rng = np.random.default_rng(2)
        old = rng.integers(0, 100, size=n_bins).astype(np.int64)
        m01 = rebin_maps(np.array([1]), np.array([3]), depth)[0]
        m12 = rebin_maps(np.array([3]), np.array([6]), depth)[0]
        m02 = rebin_maps(np.array([1]), np.array([6]), depth)[0]
        step = np.zeros(n_bins, dtype=np.int64)
        np.add.at(step, m01, old)
        two = np.zeros(n_bins, dtype=np.int64)
        np.add.at(two, m12, step)
        direct = np.zeros(n_bins, dtype=np.int64)
        np.add.at(direct, m02, old)
        assert np.array_equal(two, direct)


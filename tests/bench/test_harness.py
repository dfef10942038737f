"""Tests for the benchmark harness plumbing (tables, runner, small runs)."""

import numpy as np
import pytest

from repro.bench.runner import ExperimentScale, repeat_with_seeds
from repro.bench.tables import TextTable, format_mean_ci
from repro.errors import ValidationError


class TestTextTable:
    def test_render_contains_cells(self):
        t = TextTable(["Method", "F1"], title="demo")
        t.section("case A")
        t.row(["KeyBin2", "0.9"])
        out = t.render()
        assert "demo" in out
        assert "case A" in out
        assert "KeyBin2" in out and "0.9" in out

    def test_row_width_mismatch(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValidationError):
            t.row(["only-one"])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValidationError):
            TextTable([])

    def test_alignment_consistent(self):
        t = TextTable(["col", "value"])
        t.row(["short", "1"])
        t.row(["a-much-longer-cell", "2"])
        lines = t.render().splitlines()
        data = [l for l in lines if l.startswith(("short", "a-much"))]
        positions = {l.rstrip()[-1] == l.rstrip()[-1] for l in data}
        widths = {len(l) for l in data}
        assert len(widths) == 1  # padded to equal width

    def test_format_mean_ci(self):
        assert format_mean_ci(0.87654, 0.0321) == "0.877 ± 0.032"
        assert format_mean_ci(1.0, 0.5, digits=1) == "1.0 ± 0.5"


class TestRunner:
    def test_repeat_with_seeds_distinct(self):
        seen = []

        def body(seed):
            seen.append(seed)
            return {"x": float(seed)}

        agg = repeat_with_seeds(body, 3, base_seed=7)
        assert len(set(seen)) == 3
        assert agg.n_runs("x") == 3

    def test_repeat_invalid(self):
        with pytest.raises(ValidationError):
            repeat_with_seeds(lambda s: {}, 0)

    def test_scale_from_factor(self):
        full = ExperimentScale.from_factor(1.0)
        assert full.repeats == 20
        assert full.max_ranks == 16
        assert full.points_per_rank() == 80_000
        small = ExperimentScale.from_factor(0.01)
        assert small.points_per_rank() == 800

    def test_scale_floor(self):
        tiny = ExperimentScale.from_factor(1e-9)
        assert tiny.points_per_rank() >= 200

    def test_invalid_factor(self):
        with pytest.raises(ValidationError):
            ExperimentScale.from_factor(0.0)


class TestSmallExperimentRuns:
    """Tiny smoke runs of each experiment (shape checks, not benchmarks)."""

    def test_fig1(self):
        from repro.bench.experiments import run_fig1

        res = run_fig1(n_points=600, seed=1)
        assert "original (a)" in res.overlaps
        # The original correlated data overlaps in both dims.
        o0, o1 = res.overlaps["original (a)"]
        assert min(o0, o1) > 0.4
        assert res.keybin2_clusters >= 2
        assert res.keybin2_f1 > res.keybin1_f1
        assert "KeyBin2" in res.render()

    def test_fig2(self):
        from repro.bench.experiments import run_fig2

        res = run_fig2(n_points=1800, seed=5)
        assert res.chosen_clusters == 6
        assert res.f1 > 0.95
        for score in res.alternative_scores.values():
            assert res.chosen_score > score
        assert "Figure 2" in res.render()

    def test_table3(self):
        from repro.bench.experiments import run_table3

        res = run_table3()
        out = res.render()
        assert "Number of residues" in out
        assert res.ours["n_residues"]["min"] == 58

    def test_comm_volume_master_flat(self):
        from repro.bench.experiments import run_comm_volume

        res = run_comm_volume(rank_steps=(2, 4), n_dims=32,
                              points_per_rank=300, n_projections=2)
        master = [r for r in res.rows if r["topology"] == "master"]
        assert len(master) == 2
        # Master-topology per-worker traffic must not grow with ranks.
        assert master[1]["measured"] < master[0]["measured"] * 1.5
        assert "C1" in res.render()

    def test_table1_tiny(self):
        from repro.bench.experiments import run_table1
        from repro.bench.runner import ExperimentScale

        scale = ExperimentScale(points=0.005, repeats=1, max_ranks=2)
        res = run_table1(dims=(8,), scale=scale, n_ranks=2, seed=0)
        agg = res.results[8]["KeyBin2"]
        assert agg.n_runs("f1") == 1
        assert "Table 1" in res.render()

    def test_table2_tiny(self):
        from repro.bench.experiments import run_table2
        from repro.bench.runner import ExperimentScale

        scale = ExperimentScale(points=0.005, repeats=1, max_ranks=2)
        res = run_table2(rank_steps=(1, 2), n_dims=16, scale=scale, seed=0)
        assert set(res.results) == {1, 2}
        assert "Table 2" in res.render()

    def test_fig3_tiny(self):
        from repro.bench.experiments import run_fig3

        res = run_fig3(scale=0.01, n_trajectories=2)
        assert len(res.rows) == 2
        totals = res.totals()
        assert totals["keybin2_time"] > 0
        assert "Figure 3" in res.render()

    def test_fig4_tiny(self):
        from repro.bench.experiments import run_fig4

        res = run_fig4(scale=0.05)
        out = res.render()
        assert "1a70" in out
        assert res.result.labels.shape[0] == res.n_frames

    def test_ablation_bootstrap_tiny(self):
        from repro.bench.experiments import run_ablation_bootstrap

        res = run_ablation_bootstrap(trials=(1, 2), n_points=500, n_dims=8,
                                     repeats=1)
        assert set(res.rows) == {"1", "2"}
        assert "Ablation" in res.render()

"""Unified experiment registry (see DESIGN.md §4 for the index)."""

from __future__ import annotations

from repro.bench.experiments_synthetic import (
    Table1Result,
    Table2Result,
    run_table1,
    run_table2,
)
from repro.bench.experiments_figures import (
    Fig1Result,
    Fig2Result,
    run_fig1,
    run_fig2,
)
from repro.bench.experiments_proteins import (
    Table3Result,
    Fig3Result,
    Fig4Result,
    run_table3,
    run_fig3,
    run_fig4,
)
from repro.bench.ablations import (
    AblationResult,
    CommVolumeResult,
    run_ablation_bootstrap,
    run_ablation_nrp,
    run_ablation_partitioning,
    run_ablation_smoother,
    run_comm_volume,
)

__all__ = [
    "Table1Result", "run_table1",
    "Table2Result", "run_table2",
    "Fig1Result", "run_fig1",
    "Fig2Result", "run_fig2",
    "Table3Result", "run_table3",
    "Fig3Result", "run_fig3",
    "Fig4Result", "run_fig4",
    "AblationResult",
    "run_ablation_partitioning",
    "run_ablation_bootstrap",
    "run_ablation_nrp",
    "run_ablation_smoother",
    "CommVolumeResult",
    "run_comm_volume",
]

"""Benchmark harness regenerating the paper's tables and figures.

Each experiment in :mod:`repro.bench.experiments` reproduces one artifact
of the paper's evaluation (see DESIGN.md's experiment index). They return
structured results and can render paper-style text tables; the CLI
(``python -m repro``) and the pytest-benchmark suite under ``benchmarks/``
are thin wrappers around them.

Scale: the paper ran 1.28M × 1280-d points on a 32-node cluster; default
scales here are laptop-sized, chosen so every shape conclusion (who wins,
growth trends, crossovers) is preserved. Pass ``--scale 1.0`` for
paper-sized runs.
"""

from __future__ import annotations

from repro.bench.tables import TextTable, format_mean_ci
from repro.bench.runner import repeat_with_seeds, ExperimentScale

__all__ = [
    "TextTable",
    "format_mean_ci",
    "repeat_with_seeds",
    "ExperimentScale",
]

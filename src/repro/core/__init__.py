"""KeyBin2 core algorithm (paper §3).

Public entry points:

- :class:`~repro.core.estimator.KeyBin2` — the batch estimator
  (fit / predict / fit_predict),
- :class:`~repro.core.streaming.StreamingKeyBin2` — incremental driver for
  streams and batch sequences,
- :func:`~repro.core.distributed.fit_distributed` /
  :func:`~repro.core.distributed.keybin2_spmd` — SPMD drivers over
  :mod:`repro.comm`,
- :class:`~repro.core.keybin1.KeyBin1` — the original density-threshold
  KeyBin, kept as the ablation baseline.
"""

from __future__ import annotations

from repro.core.projection import (
    target_dimension,
    projection_matrix,
)
from repro.core.binning import SpaceRange
from repro.core.smoothing import paper_window
from repro.core.partitioning import find_cuts
from repro.core.collapse import collapse_dimensions
from repro.core.assess import histogram_ch_index
from repro.core.primary import PrimaryPartition, GlobalClusterTable
from repro.core.model import KeyBin2Model
from repro.core.outliers import KeyOutlierDetector
from repro.core.estimator import KeyBin2
from repro.core.keybin1 import KeyBin1
from repro.core.streaming import StreamingKeyBin2
from repro.core.distributed import fit_distributed, keybin2_spmd

__all__ = [
    "target_dimension",
    "projection_matrix",
    "SpaceRange",
    "paper_window",
    "find_cuts",
    "collapse_dimensions",
    "histogram_ch_index",
    "PrimaryPartition",
    "GlobalClusterTable",
    "KeyBin2Model",
    "KeyOutlierDetector",
    "KeyBin2",
    "KeyBin1",
    "StreamingKeyBin2",
    "fit_distributed",
    "keybin2_spmd",
]

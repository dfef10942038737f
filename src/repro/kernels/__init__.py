"""Data-parallel compute kernels (GPU substitute).

The paper accelerates key assignment and histogram construction with
Numba-CUDA kernels on Tesla K40m GPUs. The algorithmic structure those
kernels exploit is plain data parallelism: every (point, dimension) pair is
independent. This package reproduces that structure with vectorized NumPy;
the fused path walks the points in fixed-size chunks that mirror a GPU
grid — chunks are processed independently, so the same decomposition
would map 1:1 onto real CUDA blocks, and the working set stays
cache-sized. Chunking lives in the fused driver alone; there is no
separate block executor. Outputs can be preallocated and are written in
place.

Two execution paths coexist:

* the **reference** kernels (``project_points``, ``bin_indices``,
  ``prefix_bins``, ``accumulate_histogram``) — simple, separately-testable
  whole-array passes that define the semantics, used by ``predict``,
  ``KeyBin1`` and ``StreamingKeyBin2(fused=False)``, but by no batch or
  SPMD fit; and
* the **fused** path behind the pluggable
  :class:`~repro.kernels.backend.KernelBackend` API, which runs the whole
  projection → bin → histogram → key pipeline in chunked passes with a
  batched GEMM and no full-size intermediates: :func:`fused_partial_fit`
  (and :func:`project_bin_count`) for streaming, and
  :func:`projected_bounds` then :func:`fused_bin_points` for batch and
  SPMD fits. The equivalence suite
  (``tests/property/test_fused_equivalence.py``) holds the fused path
  bit-identical to the reference on every backend.
"""

from __future__ import annotations

from repro.kernels.backend import (
    BACKEND_ENV_VAR,
    KernelBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.kernels.numba_backend import NumbaBackend  # registers itself
from repro.kernels.project import project_points
from repro.kernels.keys import (
    bin_scale,
    bin_indices,
    bin_indices_at_depths,
    prefix_bins,
    pack_keys,
    unpack_keys,
)
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.fused import (
    FusedResult,
    FusedStateSpec,
    PointBins,
    decode_key_codes,
    fused_bin_points,
    fused_partial_fit,
    prefix_histograms,
    project_bin_count,
    projected_bounds,
)
from repro.kernels.labels import interval_id_table, intervals_for_bins

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "project_points",
    "bin_scale",
    "bin_indices",
    "bin_indices_at_depths",
    "prefix_bins",
    "pack_keys",
    "unpack_keys",
    "accumulate_histogram",
    "FusedResult",
    "FusedStateSpec",
    "PointBins",
    "decode_key_codes",
    "fused_bin_points",
    "fused_partial_fit",
    "prefix_histograms",
    "project_bin_count",
    "projected_bounds",
    "intervals_for_bins",
    "interval_id_table",
]

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

There is one ingest path, the **fused** one, behind the pluggable
:class:`~repro.kernels.backend.KernelBackend` API. It runs the whole
projection → bin → histogram → key pipeline in chunked passes with a
batched GEMM and no full-size intermediates: :func:`fused_partial_fit`
for streaming, and :func:`projected_bounds` then :func:`fused_bin_points`
for batch fits, SPMD fits, ``KeyBin1`` and the figure experiments.
:func:`bin_indices` bins one array for ``predict``. The test suite keeps
the whole-array reference chain (project, bin, shift, count, fold) as its
oracle and holds the fused path bit-identical to it on every backend.
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
from repro.kernels.keys import bin_scale, bin_indices
from repro.kernels.fused import (
    FusedResult,
    FusedStateSpec,
    PointBins,
    decode_key_codes,
    fused_bin_points,
    fused_partial_fit,
    prefix_histograms,
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
    "bin_scale",
    "bin_indices",
    "FusedResult",
    "FusedStateSpec",
    "PointBins",
    "decode_key_codes",
    "fused_bin_points",
    "fused_partial_fit",
    "prefix_histograms",
    "projected_bounds",
    "intervals_for_bins",
    "interval_id_table",
]

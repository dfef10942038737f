"""Data-parallel compute kernels (GPU substitute).

The paper accelerates key assignment and histogram construction with
Numba-CUDA kernels on Tesla K40m GPUs. The algorithmic structure those
kernels exploit is plain data parallelism: every (point, dimension) pair is
independent. This package reproduces that structure with vectorized NumPy
executed through a chunked :class:`~repro.kernels.engine.KernelEngine`
that mirrors a GPU grid — blocks of points are processed independently, so
the same decomposition would map 1:1 onto real CUDA blocks.

All kernels are allocation-disciplined: outputs can be preallocated and are
written in place, and chunked execution keeps the working set cache-sized
(see the hpc-parallel guide notes on views, contiguity and in-place ops).

Two execution paths coexist:

* the **reference** kernels (``project_points``, ``bin_indices``,
  ``prefix_bins``, ``accumulate_histogram``, ``pack_keys``) — simple,
  separately-testable passes that define the semantics; and
* the **fused** path (:func:`project_bin_count` /
  :func:`fused_partial_fit`) behind the pluggable
  :class:`~repro.kernels.backend.KernelBackend` API, which runs the whole
  projection → bin → histogram → key pipeline in one chunked pass with a
  batched GEMM and no full-size intermediates. The equivalence suite
  (``tests/property/test_fused_equivalence.py``) holds the fused path
  bit-identical to the reference on every backend.
"""

from __future__ import annotations

from repro.kernels.engine import KernelEngine, DEFAULT_BLOCK_SIZE
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
from repro.kernels.histogram import accumulate_histogram, accumulate_histograms
from repro.kernels.fused import (
    FusedResult,
    FusedStateSpec,
    decode_key_codes,
    fused_partial_fit,
    project_bin_count,
)
from repro.kernels.labels import interval_id_table, intervals_for_bins

__all__ = [
    "KernelEngine",
    "DEFAULT_BLOCK_SIZE",
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
    "accumulate_histograms",
    "FusedResult",
    "FusedStateSpec",
    "decode_key_codes",
    "fused_partial_fit",
    "project_bin_count",
    "intervals_for_bins",
    "interval_id_table",
]

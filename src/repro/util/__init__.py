"""Shared utilities: RNG handling, validation and chunking."""

from __future__ import annotations

from repro.util.rng import as_generator, spawn_generators, seed_sequence_for_rank
from repro.util.validation import check_array_2d, check_finite
from repro.util.chunking import chunk_slices, balanced_counts

__all__ = [
    "as_generator",
    "spawn_generators",
    "seed_sequence_for_rank",
    "check_array_2d",
    "check_finite",
    "chunk_slices",
    "balanced_counts",
]

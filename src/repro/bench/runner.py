"""Experiment execution helpers: timing, repetition, scaling.

The paper reports confidence intervals over 20 independent runs per design
point; :func:`repeat_with_seeds` runs a seeded experiment body ``repeats``
times and aggregates named metrics. :class:`ExperimentScale` centralizes
the down-scaling knobs so every experiment honours the same ``--scale``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.errors import ValidationError
from repro.metrics.stats import RunAggregate

__all__ = ["timed", "repeat_with_seeds", "ExperimentScale"]

#: Confidence level of every aggregated interval.
CONFIDENCE = 0.95
#: The paper's points per rank (§4), before down-scaling.
PAPER_POINTS_PER_RANK = 80_000


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once; return ``(result, wall_seconds)``."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def repeat_with_seeds(
    body: Callable[[int], Dict[str, float]],
    repeats: int,
    base_seed: int = 0,
) -> RunAggregate:
    """Run ``body(seed)`` for ``repeats`` distinct seeds, aggregating the
    metric dict it returns."""
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    agg = RunAggregate(confidence=CONFIDENCE)
    for r in range(repeats):
        metrics = body(base_seed + 1000 * r)
        agg.add(**metrics)
    return agg


@dataclass(frozen=True)
class ExperimentScale:
    """Down-scaling of the paper's experiment sizes.

    ``points`` multiplies point counts (paper: 80,000 per rank);
    ``repeats`` replaces the paper's 20 runs; ``max_ranks`` caps the rank
    doubling. ``scale=1`` reproduces the paper's sizes exactly.
    """

    points: float = 0.02          # 80,000 → 1,600 per rank by default
    repeats: int = 3
    max_ranks: int = 8

    @classmethod
    def from_factor(cls, factor: float, repeats: int | None = None,
                    max_ranks: int | None = None) -> "ExperimentScale":
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        return cls(
            points=factor,
            repeats=repeats if repeats is not None else (20 if factor >= 1 else 3),
            max_ranks=max_ranks if max_ranks is not None else (16 if factor >= 1 else 8),
        )

    def points_per_rank(self) -> int:
        return max(200, int(round(PAPER_POINTS_PER_RANK * self.points)))

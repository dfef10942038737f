"""Run statistics: the ``mean ± CI`` entries the paper tabulates.

The paper reports "confidence intervals for 20 independent runs per each
experimental design point"; :func:`mean_ci` computes a Student-t interval
half-width, and :class:`RunAggregate` collects named metrics across
repeated runs and formats them paper-style.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np
from scipy import stats as sps

from repro.errors import ValidationError

__all__ = ["mean_ci", "RunAggregate"]


def mean_ci(values, confidence: float = 0.95) -> Tuple[float, float]:
    """Mean and Student-t CI half-width of a sample.

    A single observation returns half-width 0 (nothing to infer).
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("need at least one value")
    if not (0.0 < confidence < 1.0):
        raise ValidationError("confidence must be in (0, 1)")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return mean, 0.0
    t = float(sps.t.ppf((1.0 + confidence) / 2.0, df=arr.size - 1))
    return mean, t * sem


class RunAggregate:
    """Accumulates metric values across repeated runs.

    >>> agg = RunAggregate()
    >>> agg.add(f1=0.9, time=1.2); agg.add(f1=0.8, time=1.4)
    >>> mean, half = agg.ci("f1")
    """

    def __init__(self, confidence: float = 0.95):
        self.confidence = float(confidence)
        self._values: Dict[str, List[float]] = defaultdict(list)

    def add(self, **metrics: float) -> None:
        for name, value in metrics.items():
            self._values[name].append(float(value))

    def names(self) -> List[str]:
        return sorted(self._values)

    def values(self, name: str) -> List[float]:
        if name not in self._values:
            raise ValidationError(f"no metric named {name!r} recorded")
        return list(self._values[name])

    def ci(self, name: str) -> Tuple[float, float]:
        return mean_ci(self.values(name), self.confidence)

    def n_runs(self, name: str) -> int:
        return len(self._values.get(name, ()))

    def formatted(self, name: str) -> str:
        """Paper-style ``mean ± half`` string, to three decimals."""
        mean, half = self.ci(name)
        return f"{mean:.3f} ± {half:.3f}"

    def summary(self) -> Dict[str, str]:
        return {name: self.formatted(name) for name in self.names()}

"""C2 — empirical complexity verification (paper §3.4).

The paper derives KeyBin2's time complexity as
``t·[O(M·logN·loglogN) + O(logN·log²M) + O(log²N)] + O(M·logN)`` — i.e.
essentially **linear in M** and **logarithmic-factor in N** once the
projection GEMM's O(M·N·logN) is accounted for. This experiment measures
fit time across sweeps of M and N and reports log-log slopes: a slope of
1.0 is perfectly linear; DBSCAN's M-slope approaches 2.

Run via ``python -m repro scaling``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.tables import TextTable
from repro.core.estimator import KeyBin2
from repro.data.gaussians import gaussian_mixture
from repro.errors import ValidationError

__all__ = ["ScalingResult", "run_scaling", "loglog_slope"]

#: Projections of every timed fit.
SCALING_PROJECTIONS = 4


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x) — the empirical exponent."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size < 2:
        raise ValidationError("need at least two matching samples")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("samples must be positive")
    lx, ly = np.log(xs), np.log(ys)
    lx -= lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


@dataclass
class ScalingResult:
    """Measured times and fitted exponents."""

    m_sweep: List[Tuple[int, float]] = field(default_factory=list, init=False)
    n_sweep: List[Tuple[int, float]] = field(default_factory=list, init=False)
    m_slope: float = field(default=0.0, init=False)
    n_slope: float = field(default=0.0, init=False)

    def render(self) -> str:
        t1 = TextTable(["M (points)", "fit time (s)"],
                       title="C2 — scaling in the number of points (N fixed)")
        for m, secs in self.m_sweep:
            t1.row([f"{m:,}", f"{secs:.3f}"])
        t2 = TextTable(["N (dims)", "fit time (s)"],
                       title="scaling in dimensionality (M fixed)")
        for n, secs in self.n_sweep:
            t2.row([f"{n:,}", f"{secs:.3f}"])
        lines = [
            t1.render(), "",
            f"log-log slope in M: {self.m_slope:.2f}  "
            "(1.00 = linear; paper claims linear)",
            "", t2.render(), "",
            f"log-log slope in N: {self.n_slope:.2f}  "
            "(≤ ~1 expected: GEMM O(N·logN) over log-factor analysis terms)",
        ]
        return "\n".join(lines)


def run_scaling(
    m_values: Sequence[int] = (8_000, 32_000, 128_000, 512_000),
    n_values: Sequence[int] = (32, 128, 512, 1024),
    fixed_n: int = 64,
    fixed_m: int = 8_000,
    repeats: int = 1,
    seed: int = 0,
) -> ScalingResult:
    # Note: the M sweep must span ≥ 1.5 orders of magnitude for the slope
    # to escape the fixed bootstrap overhead that dominates small fits.
    """Time KeyBin2 fits across M and N sweeps and fit the exponents."""
    result = ScalingResult()

    def time_fit(m: int, n: int) -> float:
        best = np.inf
        for r in range(repeats):
            x, _ = gaussian_mixture(m, n, n_clusters=4, seed=seed + r)
            kb = KeyBin2(seed=seed, n_projections=SCALING_PROJECTIONS)
            t0 = time.perf_counter()
            kb.fit(x)
            best = min(best, time.perf_counter() - t0)
        return best

    for m in m_values:
        result.m_sweep.append((m, time_fit(m, fixed_n)))
    for n in n_values:
        result.n_sweep.append((n, time_fit(fixed_m, n)))

    def safe_slope(sweep) -> float:
        if len(sweep) < 2:
            return float("nan")
        return loglog_slope([v for v, _ in sweep], [s for _, s in sweep])

    result.m_slope = safe_slope(result.m_sweep)
    result.n_slope = safe_slope(result.n_sweep)
    return result

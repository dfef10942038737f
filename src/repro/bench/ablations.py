"""Ablation studies for KeyBin2's design choices (DESIGN.md A1–A3, C1).

A1 — partitioning mechanism: KeyBin1's density threshold vs KeyBin2's
     derivative/prominence optimization, swept over cluster imbalance
     (the regime where a global threshold must fail).
A2 — bootstrap width: accuracy/time vs the number of random projections.
A3 — the ``N_rp = 1.5·log N`` rule vs smaller/larger targets.
C1 — measured communication volume vs the paper's O(2·K·N_rp·B) claim,
     for master and ring consolidation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.tables import TextTable, format_mean_ci
from repro.bench.runner import repeat_with_seeds
from repro.core.distributed import fit_distributed
from repro.core.estimator import KeyBin2
from repro.core.keybin1 import KeyBin1
from repro.core.projection import target_dimension
from repro.data.gaussians import gaussian_mixture
from repro.data.streams import distributed_partitions
from repro.metrics.pairs import pair_precision_recall_f1
from repro.metrics.stats import RunAggregate

__all__ = [
    "AblationResult",
    "run_ablation_partitioning",
    "run_ablation_bootstrap",
    "run_ablation_nrp",
    "run_ablation_smoother",
    "CommVolumeResult",
    "run_comm_volume",
]

#: Shard-size imbalance levels the partitioning ablation sweeps.
PARTITION_IMBALANCES = (1.0, 4.0, 16.0)
#: Candidate depths of the communication-volume fits.
COMM_VOLUME_DEPTHS = (3, 4, 5, 6)


@dataclass
class AblationResult:
    """Generic sweep result: ``rows[config][metric] -> RunAggregate``."""

    title: str
    sweep_name: str
    rows: Dict[str, Dict[str, RunAggregate]] = field(default_factory=dict, init=False)
    metrics: Sequence[str] = field(default=("f1", "clusters", "time"), init=False)

    def render(self) -> str:
        table = TextTable(
            [self.sweep_name] + [m for m in self.metrics], title=self.title
        )
        for config, aggs in self.rows.items():
            cells = [config]
            for m in self.metrics:
                cells.append(format_mean_ci(*aggs[m].ci(m)))
            table.row(cells)
        return table.render()


def run_ablation_partitioning(
    n_points: int = 6000,
    n_dims: int = 8,
    repeats: int = 3,
    seed: int = 0,
) -> AblationResult:
    """A1: threshold heuristic vs discrete optimization under imbalance.

    ``imbalance`` is the expected largest/smallest cluster size ratio; a
    density threshold calibrated to the big cluster erases the small one.
    """
    out = AblationResult(
        title="Ablation A1 — partitioning: KeyBin1 threshold vs KeyBin2",
        sweep_name="config",
    )
    for imb in PARTITION_IMBALANCES:
        concentration = 10.0 / imb  # smaller Dirichlet concentration → skew
        for algo in ("KeyBin1", "KeyBin2"):
            def body(run_seed: int) -> Dict[str, float]:
                x, y = gaussian_mixture(
                    n_points=n_points, n_dims=n_dims, n_clusters=4,
                    weight_concentration=concentration, seed=run_seed,
                )
                t0 = time.perf_counter()
                if algo == "KeyBin1":
                    model = KeyBin1(depth=6).fit(x)
                else:
                    model = KeyBin2(seed=run_seed).fit(x)
                elapsed = time.perf_counter() - t0
                _, _, f1 = pair_precision_recall_f1(y, model.labels_)
                return {
                    "f1": f1,
                    "clusters": float(model.n_clusters_),
                    "time": elapsed,
                }

            agg = repeat_with_seeds(body, repeats, base_seed=seed)
            out.rows[f"imbalance×{imb:g} / {algo}"] = {
                m: agg for m in out.metrics
            }
    return out


def run_ablation_bootstrap(
    trials: Sequence[int] = (1, 2, 4, 8, 16),
    n_points: int = 4000,
    n_dims: int = 32,
    repeats: int = 3,
    seed: int = 0,
) -> AblationResult:
    """A2: accuracy and cost vs the number of bootstrap projections."""
    out = AblationResult(
        title="Ablation A2 — bootstrap width (number of random projections)",
        sweep_name="n_projections",
    )
    for t in trials:
        def body(run_seed: int) -> Dict[str, float]:
            x, y = gaussian_mixture(
                n_points=n_points, n_dims=n_dims, n_clusters=4, seed=run_seed
            )
            t0 = time.perf_counter()
            kb = KeyBin2(n_projections=t, seed=run_seed).fit(x)
            elapsed = time.perf_counter() - t0
            _, _, f1 = pair_precision_recall_f1(y, kb.labels_)
            return {"f1": f1, "clusters": float(kb.n_clusters_), "time": elapsed}

        agg = repeat_with_seeds(body, repeats, base_seed=seed)
        out.rows[str(t)] = {m: agg for m in out.metrics}
    return out


def run_ablation_nrp(
    n_dims: int = 256,
    n_points: int = 4000,
    repeats: int = 3,
    seed: int = 0,
) -> AblationResult:
    """A3: the reduced dimensionality rule.

    Sweeps N_rp ∈ {2, log N, 1.5·log N (paper), 3·log N}.
    """
    rule = target_dimension(n_dims)  # 1.5 log N
    candidates = {
        "2 (minimum)": 2,
        "log N": max(2, int(np.ceil(np.log(n_dims)))),
        "1.5·log N (paper)": rule,
        "3·log N": min(n_dims, 2 * rule),
    }
    out = AblationResult(
        title=f"Ablation A3 — N_rp rule at N = {n_dims}",
        sweep_name="N_rp",
    )
    for name, n_rp in candidates.items():
        def body(run_seed: int) -> Dict[str, float]:
            x, y = gaussian_mixture(
                n_points=n_points, n_dims=n_dims, n_clusters=4, seed=run_seed
            )
            t0 = time.perf_counter()
            kb = KeyBin2(n_components=n_rp, seed=run_seed).fit(x)
            elapsed = time.perf_counter() - t0
            _, _, f1 = pair_precision_recall_f1(y, kb.labels_)
            return {"f1": f1, "clusters": float(kb.n_clusters_), "time": elapsed}

        agg = repeat_with_seeds(body, repeats, base_seed=seed)
        out.rows[f"{name} = {n_rp}"] = {m: agg for m in out.metrics}
    return out


@dataclass
class CommVolumeResult:
    """Measured vs predicted communication volume (DESIGN C1)."""

    rows: List[Dict[str, float]] = field(default_factory=list, init=False)

    def render(self) -> str:
        table = TextTable(
            ["ranks", "topology", "measured max bytes/rank", "histogram bytes",
             "measured / histogram"],
            title="C1 — communication volume vs the O(2·K·N_rp·B) claim",
        )
        for r in self.rows:
            table.row([
                int(r["ranks"]), r["topology"],
                f"{int(r['measured']):,}", f"{int(r['predicted']):,}",
                f"{r['ratio']:.2f}",
            ])
        return table.render()


def run_comm_volume(
    rank_steps: Sequence[int] = (2, 4, 8),
    n_dims: int = 128,
    points_per_rank: int = 1000,
    n_projections: int = 4,
    seed: int = 0,
) -> CommVolumeResult:
    """C1: measure per-rank traffic of the distributed fit.

    The "histogram bytes" baseline is the pure histogram payload one rank
    must move: 2 (send + receive) × N_rp × 2^deepest × 8 bytes ×
    n_projections. Only the deepest table travels (shallower depths are
    its reshape-sums), so this is the paper's O(2·K·N_rp·B) without the
    factor 2 of sending every depth. Measured traffic additionally carries
    the small control messages (ranges, cell tables), so ratios above 1
    are expected; growth with ranks should be flat for the ring topology.
    """
    out = CommVolumeResult()
    n_rp = target_dimension(n_dims)
    histogram_bytes = 2 * n_rp * (1 << max(COMM_VOLUME_DEPTHS)) * 8 * n_projections
    for ranks in rank_steps:
        x, y = gaussian_mixture(
            n_points=points_per_rank * ranks, n_dims=n_dims, n_clusters=4,
            seed=seed,
        )
        parts = distributed_partitions(x, y, ranks, seed=seed)
        shards = [p[0] for p in parts]
        for topology in ("master", "ring"):
            res = fit_distributed(
                shards, executor="thread", seed=seed,
                n_projections=n_projections,
                candidate_depths=COMM_VOLUME_DEPTHS,
                consolidation=topology,
            )
            worker_traffic = [
                t["bytes_sent"] + t["bytes_received"] for t in res.traffic[1:]
            ] or [res.traffic[0]["bytes_sent"] + res.traffic[0]["bytes_received"]]
            measured = max(worker_traffic)
            out.rows.append({
                "ranks": ranks,
                "topology": topology,
                "measured": float(measured),
                "predicted": float(histogram_bytes),
                "ratio": measured / histogram_bytes,
            })
    return out


def run_ablation_smoother(
    n_points: int = 4000,
    n_dims: int = 32,
    repeats: int = 3,
    seed: int = 0,
) -> AblationResult:
    """A4: moving-average vs KDE smoothing in the partitioner (§3.2).

    The paper claims the moving-average + local-regression scheme reaches
    KDE-level accuracy at much lower cost; this sweep measures both.
    """
    out = AblationResult(
        title="Ablation A4 — partitioner smoothing: moving average vs KDE",
        sweep_name="smoother",
    )
    for smoother in ("ma", "kde"):
        def body(run_seed: int) -> Dict[str, float]:
            x, y = gaussian_mixture(
                n_points=n_points, n_dims=n_dims, n_clusters=4,
                separation=3.0, seed=run_seed,
            )
            t0 = time.perf_counter()
            kb = KeyBin2(seed=run_seed, smoother=smoother).fit(x)
            elapsed = time.perf_counter() - t0
            _, _, f1 = pair_precision_recall_f1(y, kb.labels_)
            return {"f1": f1, "clusters": float(kb.n_clusters_), "time": elapsed}

        agg = repeat_with_seeds(body, repeats, base_seed=seed)
        out.rows[smoother] = {m: agg for m in out.metrics}
    return out

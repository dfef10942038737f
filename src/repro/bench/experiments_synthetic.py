"""Tables 1 and 2: scalability and accuracy on synthetic mixed Gaussians.

Table 1 — fix the rank count, grow dimensionality 20 → 1280 (×4 steps).
Table 2 — fix dimensionality at 1280, double ranks 1 → 16 with a constant
80,000 points per rank (weak scaling).

Both compare KeyBin2 against k-means++ (sequential), parallel k-means, and
(Table 2) PDSDBSCAN. Baselines receive the advantages the paper grants
them: the true ``k`` for the k-means family and a tuned ``eps`` for
DBSCAN; KeyBin2 is run fully non-parametrically.

Paper behaviours reproduced structurally:

* k-means++ stops being usable beyond ~100 dimensions (the paper's runs
  crashed); we enforce an explicit ``kmeans_dim_limit`` and emit ``—``;
* PDSDBSCAN cannot go past ~100k points / suffers distance concentration
  in 1280-d (finds one giant cluster: recall 1, precision ≈ 1/k).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.kmeans import KMeans
from repro.baselines.parallel_kmeans import ParallelKMeans
from repro.baselines.pdsdbscan import PDSDBSCAN
from repro.bench.runner import ExperimentScale, repeat_with_seeds
from repro.bench.tables import TextTable, format_mean_ci
from repro.core.distributed import fit_distributed
from repro.data.gaussians import gaussian_mixture
from repro.data.streams import distributed_partitions
from repro.metrics.pairs import pair_precision_recall_f1
from repro.metrics.stats import RunAggregate

__all__ = ["Table1Result", "run_table1", "Table2Result", "run_table2",
           "estimate_dbscan_eps"]

PAPER_DIMS = (20, 80, 320, 1280)
PAPER_RANK_STEPS = (1, 2, 4, 8, 16)
N_TRUE_CLUSTERS = 4
#: Minimum centre distance of the tables' mixtures, in sigma units.
SEPARATION = 3.0
#: The eps heuristic reads the distance to the ``EPS_KNN``-th neighbour over
#: a subsample of ``EPS_SAMPLE`` rows.
EPS_KNN = 4
EPS_SAMPLE = 500


def estimate_dbscan_eps(x: np.ndarray, seed: int = 0) -> float:
    """The standard k-NN-knee eps heuristic on a subsample.

    This is the "optimal parameters" treatment the paper gives PDSDBSCAN;
    in very high dimensions the k-NN distances concentrate, so any eps
    either merges everything or marks everything noise — the failure mode
    Table 2 shows.
    """
    rng = np.random.default_rng(seed)
    m = x.shape[0]
    idx = rng.choice(m, size=min(EPS_SAMPLE, m), replace=False)
    sub = x[idx]
    d2 = (
        np.einsum("ij,ij->i", sub, sub)[:, None]
        - 2 * sub @ sub.T
        + np.einsum("ij,ij->i", sub, sub)[None, :]
    )
    np.maximum(d2, 0, out=d2)
    d = np.sqrt(np.sort(d2, axis=1)[:, min(EPS_KNN, sub.shape[0] - 1)])
    eps = float(np.median(d) * 1.05)
    if eps <= 0.0:
        # Discrete/duplicated data: the k-NN distance can be exactly zero.
        positive = d[d > 0]
        eps = float(positive.min()) if positive.size else 1.0
    return eps


def _keybin_metrics(shards, y, seed: int) -> Dict[str, float]:
    t0 = time.perf_counter()
    res = fit_distributed(list(shards), executor="thread", seed=seed)
    elapsed = time.perf_counter() - t0
    prec, rec, f1 = pair_precision_recall_f1(y, res.concatenated_labels())
    return {
        "clusters": float(res.n_clusters),
        "recall": rec,
        "precision": prec,
        "f1": f1,
        "time": elapsed,
    }


def _kmeanspp_metrics(x, y, seed: int) -> Dict[str, float]:
    t0 = time.perf_counter()
    km = KMeans(N_TRUE_CLUSTERS, seed=seed).fit(x)
    elapsed = time.perf_counter() - t0
    prec, rec, f1 = pair_precision_recall_f1(y, km.labels_)
    return {
        "clusters": float(np.unique(km.labels_).size),
        "recall": rec,
        "precision": prec,
        "f1": f1,
        "time": elapsed,
    }


def _parallel_kmeans_metrics(shards, y, seed: int) -> Dict[str, float]:
    t0 = time.perf_counter()
    pk = ParallelKMeans(N_TRUE_CLUSTERS, seed=seed).fit(list(shards))
    elapsed = time.perf_counter() - t0
    prec, rec, f1 = pair_precision_recall_f1(y, pk.concatenated_labels())
    return {
        "clusters": float(np.unique(pk.concatenated_labels()).size),
        "recall": rec,
        "precision": prec,
        "f1": f1,
        "time": elapsed,
    }


def _pdsdbscan_metrics(shards, y, seed: int, max_points: int) -> Optional[Dict[str, float]]:
    total = sum(s.shape[0] for s in shards)
    if total > max_points:
        return None  # the paper's "could not handle more than 100k points"
    x_all = np.concatenate(shards)
    eps = estimate_dbscan_eps(x_all, seed=seed)
    t0 = time.perf_counter()
    pdb = PDSDBSCAN(eps=eps, min_points=5).fit(list(shards))
    elapsed = time.perf_counter() - t0
    labels = pdb.concatenated_labels()
    prec, rec, f1 = pair_precision_recall_f1(y, labels)
    return {
        "clusters": float(max(pdb.n_clusters_, 1)),
        "recall": rec,
        "precision": prec,
        "f1": f1,
        "time": elapsed,
    }


_METRIC_ORDER = ("clusters", "recall", "precision", "f1", "time")


@dataclass
class Table1Result:
    """Aggregated Table-1 rows: ``results[dims][method] -> RunAggregate``."""

    dims: Sequence[int]
    n_ranks: int
    points_per_rank: int
    repeats: int
    results: Dict[int, Dict[str, RunAggregate]] = field(default_factory=dict, init=False)

    def render(self) -> str:
        table = TextTable(
            ["Method", "Clusters", "Recall", "Precision", "F1", "Time (s)"],
            title=(
                f"Table 1 — {self.n_ranks * self.points_per_rank:,} points on "
                f"{self.n_ranks} ranks ({self.points_per_rank:,}/rank), "
                f"{self.repeats} runs"
            ),
        )
        for d in self.dims:
            table.section(f"{d} dimensions")
            for method, agg in self.results[d].items():
                if agg is None:
                    table.row([method, "—", "—", "—", "—", "—"])
                    continue
                cells = [method]
                for metric, digits in zip(_METRIC_ORDER, (2, 3, 3, 3, 2)):
                    cells.append(format_mean_ci(*agg.ci(metric), digits=digits))
                table.row(cells)
        return table.render()


def run_table1(
    dims: Sequence[int] = PAPER_DIMS,
    scale: ExperimentScale = ExperimentScale(),
    n_ranks: int = 8,
    kmeans_dim_limit: int = 160,
    seed: int = 0,
) -> Table1Result:
    """Reproduce Table 1 (dimension scaling at fixed rank count)."""
    points_per_rank = scale.points_per_rank()
    out = Table1Result(
        dims=tuple(dims), n_ranks=n_ranks,
        points_per_rank=points_per_rank, repeats=scale.repeats,
    )
    for d in dims:
        per_dim: Dict[str, Optional[RunAggregate]] = {}

        def body_factory(method):
            def body(run_seed: int) -> Dict[str, float]:
                x, y = gaussian_mixture(
                    n_points=points_per_rank * n_ranks,
                    n_dims=d,
                    n_clusters=N_TRUE_CLUSTERS,
                    separation=SEPARATION,
                    seed=run_seed,
                )
                parts = distributed_partitions(x, y, n_ranks, seed=run_seed)
                shards = [p[0] for p in parts]
                y_order = np.concatenate([p[1] for p in parts])
                if method == "KeyBin2":
                    return _keybin_metrics(shards, y_order, run_seed)
                if method == "kmeans++":
                    return _kmeanspp_metrics(x, y, run_seed)
                return _parallel_kmeans_metrics(shards, y_order, run_seed)
            return body

        per_dim["KeyBin2"] = repeat_with_seeds(
            body_factory("KeyBin2"), scale.repeats, base_seed=seed
        )
        if d <= kmeans_dim_limit:
            per_dim["kmeans++"] = repeat_with_seeds(
                body_factory("kmeans++"), scale.repeats, base_seed=seed
            )
        else:
            per_dim["kmeans++"] = None
        per_dim["parallel-kmeans"] = repeat_with_seeds(
            body_factory("parallel-kmeans"), scale.repeats, base_seed=seed
        )
        out.results[d] = per_dim
    return out


@dataclass
class Table2Result:
    """Aggregated Table-2 rows: ``results[ranks][method] -> RunAggregate``."""

    rank_steps: Sequence[int]
    n_dims: int
    points_per_rank: int
    repeats: int
    results: Dict[int, Dict[str, Optional[RunAggregate]]] = field(default_factory=dict, init=False)

    def render(self) -> str:
        table = TextTable(
            ["Method", "Clusters", "Recall", "Precision", "F1", "Time (s)"],
            title=(
                f"Table 2 — {self.n_dims}-dimensional points, "
                f"{self.points_per_rank:,} per rank, {self.repeats} runs"
            ),
        )
        for r in self.rank_steps:
            table.section(
                f"{r} process(es) ({r * self.points_per_rank:,} data points)"
            )
            for method, agg in self.results[r].items():
                if agg is None:
                    table.row([method, "—", "—", "—", "—", "—"])
                    continue
                cells = [method]
                for metric, digits in zip(_METRIC_ORDER, (2, 3, 3, 3, 2)):
                    cells.append(format_mean_ci(*agg.ci(metric), digits=digits))
                table.row(cells)
        return table.render()


def run_table2(
    rank_steps: Sequence[int] = PAPER_RANK_STEPS,
    n_dims: int = 1280,
    scale: ExperimentScale = ExperimentScale(),
    dbscan_max_points: int = 2000,
    seed: int = 0,
) -> Table2Result:
    """Reproduce Table 2 (weak scaling: ranks double, per-rank data fixed)."""
    rank_steps = tuple(r for r in rank_steps if r <= scale.max_ranks)
    points_per_rank = scale.points_per_rank()
    out = Table2Result(
        rank_steps=rank_steps, n_dims=n_dims,
        points_per_rank=points_per_rank, repeats=scale.repeats,
    )
    for r in rank_steps:
        per_rank: Dict[str, Optional[RunAggregate]] = {}

        def body_factory(method):
            def body(run_seed: int) -> Dict[str, float]:
                x, y = gaussian_mixture(
                    n_points=points_per_rank * r,
                    n_dims=n_dims,
                    n_clusters=N_TRUE_CLUSTERS,
                    separation=SEPARATION,
                    seed=run_seed,
                )
                parts = distributed_partitions(x, y, r, seed=run_seed)
                shards = [p[0] for p in parts]
                y_order = np.concatenate([p[1] for p in parts])
                if method == "KeyBin2":
                    return _keybin_metrics(shards, y_order, run_seed)
                if method == "parallel-kmeans":
                    return _parallel_kmeans_metrics(shards, y_order, run_seed)
                res = _pdsdbscan_metrics(
                    shards, y_order, run_seed, dbscan_max_points
                )
                if res is None:
                    raise _SkipMethod()
                return res
            return body

        per_rank["KeyBin2"] = repeat_with_seeds(
            body_factory("KeyBin2"), scale.repeats, base_seed=seed
        )
        per_rank["parallel-kmeans"] = repeat_with_seeds(
            body_factory("parallel-kmeans"), scale.repeats, base_seed=seed
        )
        try:
            per_rank["pdsdbscan"] = repeat_with_seeds(
                body_factory("pdsdbscan"), scale.repeats, base_seed=seed
            )
        except _SkipMethod:
            per_rank["pdsdbscan"] = None
        out.results[r] = per_rank
    return out


class _SkipMethod(Exception):
    """Raised when a baseline cannot run at this design point (paper: '—')."""

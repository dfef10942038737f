"""Figures 1 and 2: projection rotation and subspace assessment.

Figure 1 — two correlated clusters whose 1-D projections overlap on every
original axis; five random projections rotate the data, some decorrelating
it (b, c in the paper) and some making it worse (d, f). We quantify each
projection by its best per-dimension class overlap and show KeyBin1 fails
while KeyBin2's bootstrap finds a separating rotation.

Figure 2 — six clusters in 2-D, partitioned per dimension; the
histogram-space Calinski–Harabasz index is evaluated for the chosen cut
set and degenerate alternatives, demonstrating that the index ranks the
correct partition highest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.tables import TextTable
from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.estimator import KeyBin2
from repro.core.keybin1 import KeyBin1
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.core.projection import projection_matrix
from repro.data.correlated import correlated_clusters
from repro.kernels.fused import FusedStateSpec, fused_bin_points
from repro.metrics.pairs import pair_precision_recall_f1

#: Histogram bins of the 1-D class-overlap measure.
OVERLAP_BINS = 64
#: Random rotations Figure 1 scores, and Figure 2's binning depth.
FIG1_ROTATIONS = 5
FIG2_DEPTH = 6

__all__ = ["Fig1Result", "run_fig1", "Fig2Result", "run_fig2",
           "class_overlap_1d"]


def class_overlap_1d(values: np.ndarray, y: np.ndarray) -> float:
    """Histogram-intersection overlap of two classes along one axis.

    1.0 = the class-conditional distributions coincide (inseparable);
    0.0 = disjoint supports (perfectly separable by one cut).
    """
    classes = np.unique(y)
    if classes.size != 2:
        raise ValueError("overlap is defined for exactly two classes")
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return 1.0
    edges = np.linspace(lo, hi, OVERLAP_BINS + 1)
    h0, _ = np.histogram(values[y == classes[0]], bins=edges, density=False)
    h1, _ = np.histogram(values[y == classes[1]], bins=edges, density=False)
    p0 = h0 / max(h0.sum(), 1)
    p1 = h1 / max(h1.sum(), 1)
    return float(np.minimum(p0, p1).sum())


@dataclass
class Fig1Result:
    """Per-projection overlaps plus KeyBin1/KeyBin2 accuracy."""

    overlaps: Dict[str, Tuple[float, float]] = field(default_factory=dict, init=False)
    keybin1_f1: float = field(default=0.0, init=False)
    keybin1_clusters: int = field(default=0, init=False)
    keybin2_f1: float = field(default=0.0, init=False)
    keybin2_clusters: int = field(default=0, init=False)

    def render(self) -> str:
        table = TextTable(
            ["Projection", "Overlap dim 0", "Overlap dim 1", "Separable?"],
            title="Figure 1 — projection rotation on correlated clusters",
        )
        for name, (o0, o1) in self.overlaps.items():
            sep = "yes" if min(o0, o1) < 0.25 else "no"
            table.row([name, f"{o0:.3f}", f"{o1:.3f}", sep])
        lines = [table.render(), ""]
        lines.append(
            f"KeyBin1 (no projection): {self.keybin1_clusters} cluster(s), "
            f"F1 = {self.keybin1_f1:.3f}"
        )
        lines.append(
            f"KeyBin2 (bootstrap over projections): {self.keybin2_clusters} "
            f"cluster(s), F1 = {self.keybin2_f1:.3f}"
        )
        return "\n".join(lines)


def run_fig1(
    n_points: int = 3000,
    seed: int = 1,
) -> Fig1Result:
    """Reproduce Figure 1's rotation study quantitatively."""
    x, y = correlated_clusters(n_points, seed=seed)
    out = Fig1Result()
    out.overlaps["original (a)"] = (
        class_overlap_1d(x[:, 0], y),
        class_overlap_1d(x[:, 1], y),
    )
    letters = "bcdef"
    for t in range(FIG1_ROTATIONS):
        a = projection_matrix(2, 2, seed=seed + 100 + t, kind="gaussian")
        p = x @ a
        out.overlaps[f"random ({letters[t % len(letters)]})"] = (
            class_overlap_1d(p[:, 0], y),
            class_overlap_1d(p[:, 1], y),
        )

    kb1 = KeyBin1(depth=6).fit(x)
    prec1, rec1, f1_1 = pair_precision_recall_f1(y, kb1.labels_)
    out.keybin1_f1 = f1_1
    out.keybin1_clusters = kb1.n_clusters_

    kb2 = KeyBin2(n_projections=10, seed=seed).fit(x)
    prec2, rec2, f1_2 = pair_precision_recall_f1(y, kb2.labels_)
    out.keybin2_f1 = f1_2
    out.keybin2_clusters = kb2.n_clusters_
    return out


@dataclass
class Fig2Result:
    """CH-index ranking of candidate partitions on the 6-cluster layout."""

    chosen_score: float = 0.0
    chosen_clusters: int = 0
    chosen_cuts: List[List[int]] = field(default_factory=list)
    alternative_scores: Dict[str, float] = field(default_factory=dict, init=False)
    histograms: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    f1: float = 0.0

    def render(self) -> str:
        lines = [
            "Figure 2 — assessing projected subspaces (6 clusters, 2-D)",
            "=" * 60,
            f"found partition: cuts per dim = {self.chosen_cuts}, "
            f"{self.chosen_clusters} occupied cells",
            f"histogram-space CH score = {self.chosen_score:.2f}, "
            f"pairwise F1 = {self.f1:.3f}",
            "",
            "CH score of alternative partitions (lower = worse):",
        ]
        for name, score in self.alternative_scores.items():
            lines.append(f"  {name:<28s} {score:>12.2f}")
        return "\n".join(lines)


def run_fig2(
    n_points: int = 6000,
    seed: int = 5,
) -> Fig2Result:
    """Reproduce Figure 2's assessment mechanics on a 6-cluster layout."""
    depth = FIG2_DEPTH
    # Six clusters on a 3 × 2 grid — the paper's illustrative layout.
    centers = np.array(
        [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [0.0, 10.0], [10.0, 10.0],
         [20.0, 10.0]]
    )
    rng = np.random.default_rng(seed)
    per = n_points // 6
    xs, ys = [], []
    for k, c in enumerate(centers):
        xs.append(c + rng.standard_normal((per, 2)))
        ys.append(np.full(per, k, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)

    space = SpaceRange.from_data(x, margin=0.05)
    (points,) = fused_bin_points(
        x, [FusedStateSpec(None, space.r_min, space.r_max, (depth,))]
    )
    counts, bins = points.deep, points.rows.T

    cuts = [find_cuts(counts[j]) for j in range(2)]
    partition = PrimaryPartition(depth, cuts)
    intervals = partition.intervals_for(bins)
    codes = partition.cell_codes(intervals)
    table = GlobalClusterTable.from_points(codes)
    labels = table.lookup(codes)
    cells = partition.decode_cells(table.codes)
    chosen_score = histogram_ch_index(counts, partition.cuts, cells)
    _, _, f1 = pair_precision_recall_f1(y, labels)

    out = Fig2Result(
        chosen_score=chosen_score,
        chosen_clusters=table.n_clusters,
        chosen_cuts=[list(map(int, c)) for c in cuts],
        histograms=counts,
        f1=f1,
    )

    # Alternatives: no cuts in one dim; a single arbitrary midpoint cut;
    # over-cutting every few bins.
    n_bins = 1 << depth
    alternatives = {
        "no cut in dim 1": [cuts[0], np.empty(0, dtype=np.int64)],
        "single midpoint cuts": [
            np.array([n_bins // 2], dtype=np.int64),
            np.array([n_bins // 2], dtype=np.int64),
        ],
        "over-cut (every 8 bins)": [
            np.arange(7, n_bins - 1, 8, dtype=np.int64),
            np.arange(7, n_bins - 1, 8, dtype=np.int64),
        ],
    }
    for name, alt in alternatives.items():
        p = PrimaryPartition(depth, alt)
        iv = p.intervals_for(bins)
        cd = p.cell_codes(iv)
        tb = GlobalClusterTable.from_points(cd)
        score = histogram_ch_index(counts, p.cuts, p.decode_cells(tb.codes))
        out.alternative_scores[name] = score
    return out

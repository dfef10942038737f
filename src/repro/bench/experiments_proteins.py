"""Table 3 and Figures 3–4: the protein-folding case study (paper §5).

Table 3 — size statistics of the 31-trajectory library.
Figure 3 — per-trajectory clustering time, KeyBin2 vs k-means++ vs DBSCAN.
Figure 4 — metastable segments (rectangles) and cluster fingerprints for
trajectory 1a70, rendered as a text timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.dbscan import DBSCAN
from repro.baselines.kmeans import KMeans
from repro.bench.experiments_synthetic import estimate_dbscan_eps
from repro.bench.tables import TextTable
from repro.core.estimator import KeyBin2
from repro.insitu.pipeline import InSituPipeline, InSituResult
from repro.proteins.encode import encode_frames
from repro.proteins.model_library import (
    N_TRAJECTORIES,
    RESIDUES_MEAN,
    RESIDUES_RANGE,
    RESIDUES_STD,
    STEPS_MEAN,
    STEPS_RANGE,
    STEPS_STD,
    TrajectorySpec,
    library_summary,
    model_library,
)

__all__ = [
    "Table3Result", "run_table3",
    "Fig3Result", "run_fig3",
    "Fig4Result", "run_fig4",
]

#: k of Figure 3's k-means timing (the secondary-structure types).
FIG3_KMEANS_K = 6


@dataclass
class Table3Result:
    """Library summary vs the paper's Table 3."""

    ours: Dict[str, Dict[str, float]]
    paper: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: {
            "n_residues": {
                "mean": RESIDUES_MEAN, "stdev": RESIDUES_STD,
                "min": float(RESIDUES_RANGE[0]), "max": float(RESIDUES_RANGE[1]),
            },
            "simulation_time_ps": {
                "mean": STEPS_MEAN, "stdev": STEPS_STD,
                "min": float(STEPS_RANGE[0]), "max": float(STEPS_RANGE[1]),
            },
        },
        init=False,
    )

    def render(self) -> str:
        table = TextTable(
            ["Characteristic", "Mean", "Stdev", "Min", "Max"],
            title=f"Table 3 — characteristics of {N_TRAJECTORIES} trajectories",
        )
        names = {
            "n_residues": "Number of residues",
            "simulation_time_ps": "Simulation time (ps)",
        }
        for key, label in names.items():
            for source, stats in (("ours", self.ours[key]), ("paper", self.paper[key])):
                table.row([
                    f"{label} ({source})",
                    f"{stats['mean']:.2f}",
                    f"{stats['stdev']:.2f}",
                    f"{stats['min']:.0f}",
                    f"{stats['max']:.0f}",
                ])
        return table.render()


def run_table3(scale: float = 1.0, seed: int = 20180813) -> Table3Result:
    """Reproduce Table 3 from the synthetic library."""
    specs = model_library(seed=seed, scale=scale)
    return Table3Result(ours=library_summary(specs))


@dataclass
class Fig3Result:
    """Per-trajectory clustering times (seconds)."""

    rows: List[Dict[str, object]] = field(default_factory=list, init=False)

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for row in self.rows:
            for key, value in row.items():
                if key.endswith("_time") and value is not None:
                    out[key] = out.get(key, 0.0) + float(value)
        return out

    def per_frame(self) -> Dict[str, float]:
        frames = sum(int(r["n_frames"]) for r in self.rows)
        return {k: v / frames for k, v in self.totals().items()}

    def render(self) -> str:
        table = TextTable(
            ["Trajectory", "Frames", "Residues", "KeyBin2 (s)", "kmeans++ (s)",
             "DBSCAN (s)"],
            title="Figure 3 — execution time for clustering the trajectory library",
        )
        for r in self.rows:
            def cell(key):
                v = r[key]
                return "—" if v is None else f"{v:.3f}"
            table.row([
                r["name"], r["n_frames"], r["n_residues"],
                cell("keybin2_time"), cell("kmeans_time"), cell("dbscan_time"),
            ])
        lines = [table.render(), ""]
        totals = self.totals()
        frames = sum(int(r["n_frames"]) for r in self.rows)
        for key, label in (
            ("keybin2_time", "KeyBin2"),
            ("kmeans_time", "kmeans++"),
            ("dbscan_time", "DBSCAN"),
        ):
            if key in totals:
                lines.append(
                    f"{label:<10s} total {totals[key]:8.2f} s "
                    f"({totals[key] / frames * 1000:.3f} ms/frame)"
                )
        return "\n".join(lines)


def run_fig3(
    scale: float = 0.05,
    n_trajectories: Optional[int] = None,
    dbscan_max_frames: int = 3000,
    seed: int = 20180813,
) -> Fig3Result:
    """Reproduce Figure 3 (per-trajectory clustering time comparison).

    ``scale`` shrinks frame counts (the paper's full library is ~300k
    frames); DBSCAN is skipped for trajectories beyond
    ``dbscan_max_frames`` (quadratic brute-force queries in
    ``n_residues``-dimensional space).
    """
    specs = model_library(seed=seed, scale=scale)
    if n_trajectories is not None:
        specs = specs[:n_trajectories]
    out = Fig3Result()
    for spec in specs:
        traj = spec.simulate()
        features = encode_frames(traj.angles)

        t0 = time.perf_counter()
        kb = KeyBin2(seed=spec.seed, n_projections=4).fit(features)
        keybin2_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        KMeans(FIG3_KMEANS_K, seed=spec.seed, n_init=1).fit(features)
        kmeans_time = time.perf_counter() - t0

        dbscan_time = None
        if features.shape[0] <= dbscan_max_frames:
            eps = estimate_dbscan_eps(features, seed=spec.seed)
            t0 = time.perf_counter()
            DBSCAN(eps=eps, min_points=5).fit(features)
            dbscan_time = time.perf_counter() - t0

        out.rows.append({
            "name": spec.name,
            "n_frames": features.shape[0],
            "n_residues": spec.n_residues,
            "keybin2_time": keybin2_time,
            "kmeans_time": kmeans_time,
            "dbscan_time": dbscan_time,
            "keybin2_clusters": kb.n_clusters_,
        })
    return out


@dataclass
class Fig4Result:
    """Figure-4 artefacts for one trajectory."""

    name: str
    result: InSituResult
    n_frames: int
    phase_ids: np.ndarray

    def render(self, width: int = 100) -> str:
        """ASCII timeline: metastable rectangles, fingerprint changes,
        ground-truth phases."""
        res = self.result
        scalef = self.n_frames / width

        def to_col(frame: int) -> int:
            return min(width - 1, int(frame / scalef))

        seg_line = [" "] * width
        for seg in res.segments:
            a, b = to_col(seg.start), to_col(seg.stop - 1)
            for c in range(a, b + 1):
                seg_line[c] = str(seg.label % 10)
        change_line = [" "] * width
        for f in res.fingerprint_changes:
            change_line[to_col(int(f))] = "^"
        phase_line = [
            str(int(self.phase_ids[min(self.n_frames - 1, int(i * scalef))]) % 10)
            for i in range(width)
        ]
        lines = [
            f"Figure 4 — trajectory {self.name}: {self.n_frames} frames, "
            f"{res.n_clusters} fine-grained clusters",
            "=" * width,
            "metastable segments (eqs. 3–4, label digits):",
            "".join(seg_line),
            "fingerprint change points (^):",
            "".join(change_line),
            "ground-truth phases:",
            "".join(phase_line),
            "",
            f"segments: {[(s.start, s.stop, s.label) for s in res.segments]}",
            f"phase NMI (online labels vs truth)  = {res.phase_nmi:.3f}",
            f"segment NMI (eqs. 3–4 vs truth)     = "
            + (f"{res.segment_nmi:.3f}" if res.segment_nmi is not None else "n/a"),
        ]
        return "\n".join(lines)


def run_fig4(
    scale: float = 0.2,
    seed: int = 20180813,
    **pipeline_params,
) -> Fig4Result:
    """Reproduce Figure 4 on the 1a70-style trajectory (10,000 frames at
    ``scale=1``)."""
    spec = model_library(seed=seed, scale=scale)[0]  # 1a70 by construction
    traj = spec.simulate()
    pipe = InSituPipeline(seed=spec.seed, **pipeline_params)
    res = pipe.run(traj)
    return Fig4Result(
        name=spec.name,
        result=res,
        n_frames=traj.n_frames,
        phase_ids=traj.phase_ids,
    )

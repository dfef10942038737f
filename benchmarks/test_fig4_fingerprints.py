"""Figure 4 — qualitative clustering validation on trajectory 1a70.

Benchmarks the full in-situ pipeline on a scaled 1a70 and pins the
qualitative structure: multiple metastable segments are found, fingerprints
change between them, and both views agree with ground truth well above
chance (a check the paper could only do visually).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments_proteins import run_fig4
from repro.insitu.pipeline import InSituPipeline
from repro.proteins.model_library import model_library


def test_fig4_pipeline(benchmark):
    result = benchmark(lambda: run_fig4(scale=0.1))
    res = result.result
    assert len(res.segments) >= 2
    assert res.phase_nmi > 0.3
    assert res.segment_nmi is None or res.segment_nmi > 0.3
    rendered = result.render()
    assert "1a70" in rendered
    benchmark.extra_info["segments"] = len(res.segments)
    benchmark.extra_info["clusters"] = res.n_clusters


def test_stability_validation_cost(benchmark):
    """The offline eqs. 3–4 validation pass alone."""
    import numpy as np

    from repro.insitu.stability import (
        label_probabilities,
        stability_decisions,
        stability_scores,
    )
    from repro.proteins.rmsd import rmsd_time_series, select_representatives

    spec = model_library(scale=0.05)[0]
    traj = spec.simulate()
    flat = traj.angles.reshape(traj.n_frames, -1)
    reps = select_representatives(traj.angles, 8)

    def run():
        d = rmsd_time_series(flat, flat[reps])
        p = label_probabilities(d)
        s = stability_scores(p, window=100)
        return stability_decisions(s, 0.05)

    stable, winners = benchmark(run)
    assert stable.shape[0] == traj.n_frames


def test_online_clustering_portion(benchmark):
    """Only the streaming-clustering share of the pipeline (what actually
    runs in situ)."""
    from repro.core.streaming import StreamingKeyBin2
    from repro.proteins.encode import encode_frames

    spec = model_library(scale=0.1)[0]
    traj = spec.simulate()
    feats = encode_frames(traj.angles)

    def run():
        skb = StreamingKeyBin2(seed=0)
        for i in range(0, feats.shape[0], 250):
            skb.partial_fit(feats[i : i + 250])
        skb.refresh()
        return skb.predict(feats)

    labels = benchmark(run)
    assert labels.shape[0] == feats.shape[0]

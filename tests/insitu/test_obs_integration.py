"""Telemetry accounting for the distributed in-situ path.

Pins the ISSUE's acceptance criterion: over a multi-round run,
``insitu_consolidation_bytes_total{kind="hist"}`` sums to exactly
(histogram bytes × rounds) per rank — the O(histogram × rounds) wire
bound ``tests/insitu/test_consolidation.py`` pins at the communicator
level, now visible as a first-class metric series.
"""

import pytest

from repro.core.streaming import StreamingKeyBin2
from repro.insitu.distributed import run_distributed_insitu
from repro.obs import MetricsRegistry, ensure_core_series, set_default_registry
from repro.proteins.encode import encode_frames
from repro.proteins.trajectory import TrajectorySimulator

N_RESIDUES = 24
N_FRAMES = 160
CHUNK = 40            # 4 chunks per rank
EVERY = 2             # -> consolidation rounds at chunks 2 and 4
N_ROUNDS = 2
KEYBIN_PARAMS = {"feature_range": (0.0, 6.0), "candidate_depths": (5, 6, 7, 8)}


def _trajectories(n, base_seed=50):
    proto = TrajectorySimulator(N_RESIDUES, N_FRAMES, 4, seed=base_seed)
    targets = proto.simulate().phase_targets
    return [
        TrajectorySimulator(
            N_RESIDUES, N_FRAMES, 4, phase_targets=targets,
            seed=base_seed + 1 + i,
        ).simulate(name=f"traj{i}")
        for i in range(n)
    ]


def _hist_nbytes(seed=0):
    """Flat histogram-delta bytes of an identically configured model."""
    probe = StreamingKeyBin2(seed=seed, **KEYBIN_PARAMS)
    probe.partial_fit(encode_frames(_trajectories(1)[0].angles)[:CHUNK])
    return sum(st.hist[d].nbytes for st in probe._states for d in st.depths)


@pytest.fixture()
def obs_run():
    """Run 3 ranks against a fresh default registry; yield the registry."""
    reg = ensure_core_series(MetricsRegistry())
    previous = set_default_registry(reg)
    try:
        results = run_distributed_insitu(
            _trajectories(3), chunk_size=CHUNK, consolidate_every=EVERY,
            seed=0, **KEYBIN_PARAMS,
        )
    finally:
        set_default_registry(previous)
    return reg, results


def _samples(reg, name):
    return reg.get(name).snapshot()["samples"]


def test_round_counts_per_rank(obs_run):
    reg, results = obs_run
    rounds = {
        s["labels"]["rank"]: s["value"]
        for s in _samples(reg, "insitu_consolidation_rounds_total")
        if s["value"]
    }
    assert rounds == {"0": N_ROUNDS, "1": N_ROUNDS, "2": N_ROUNDS}


def test_hist_delta_bytes_sum_to_histogram_times_rounds(obs_run):
    reg, results = obs_run
    hist_nbytes = _hist_nbytes()
    per_rank = {
        s["labels"]["rank"]: s["value"]
        for s in _samples(reg, "insitu_consolidation_bytes_total")
        if s["labels"]["kind"] == "hist" and s["value"]
    }
    assert set(per_rank) == {"0", "1", "2"}
    for rank, total in per_rank.items():
        # Exact: the flat delta buffer is the full histogram every round.
        assert total == hist_nbytes * N_ROUNDS
        # And within the paper's O(2·K·N_rp·B) ring bound per round.
        assert total <= 2 * hist_nbytes * N_ROUNDS


def test_seen_and_keys_bytes_recorded(obs_run):
    reg, results = obs_run
    by_kind = {}
    for s in _samples(reg, "insitu_consolidation_bytes_total"):
        by_kind[s["labels"]["kind"]] = (
            by_kind.get(s["labels"]["kind"], 0) + s["value"]
        )
    # 8 bytes (one int64) per rank per round.
    assert by_kind["seen"] == 8 * 3 * N_ROUNDS
    assert by_kind["keys"] > 0


def test_cells_folded_and_evictions_counted(obs_run):
    reg, results = obs_run
    folded = sum(
        s["value"]
        for s in _samples(reg, "insitu_consolidation_cells_folded_total")
    )
    assert folded > 0  # each rank folds its two peers' deltas
    evicted = sum(
        s["value"]
        for s in _samples(reg, "insitu_consolidation_evictions_total")
    )
    assert evicted >= 0


def test_phase_spans_attributed_per_rank(obs_run):
    reg, results = obs_run
    phases = {
        s["labels"]["phase"]
        for s in _samples(reg, "phase_calls_total")
        if s["value"]
    }
    for rank in range(3):
        assert f"insitu/rank{rank}/partial_fit/project" in phases
        assert f"insitu/rank{rank}/consolidate/hist_allreduce" in phases
        assert f"insitu/rank{rank}/refresh" in phases
        for step in ("collapse", "cuts", "cell_table", "score"):
            assert f"insitu/rank{rank}/refresh/{step}" in phases
        assert f"insitu/rank{rank}/label_frames" in phases


def test_stream_counters(obs_run):
    reg, results = obs_run
    assert reg.get("stream_points_total").value == 3 * N_FRAMES
    assert reg.get("stream_refreshes_total").value == 3  # one per rank


def test_kernel_launches_counted():
    import numpy as np

    from repro.kernels.engine import KernelEngine

    reg = MetricsRegistry()
    previous = set_default_registry(reg)
    try:
        engine = KernelEngine(block_size=10)

        def double(block):
            return block * 2

        def block_sum(block):
            return block.sum()

        engine.map(double, np.ones((25, 3)))
        engine.reduce(block_sum, np.ones((25, 3)),
                      combine=lambda a, b: a + b)
    finally:
        set_default_registry(previous)
    samples = _samples(reg, "kernel_launches_total")
    assert {s["labels"]["kernel"]: s["value"] for s in samples} == {
        "double": 3.0,      # 25 rows / block_size 10 -> 3 blocks each
        "block_sum": 3.0,
    }
    assert engine.launches == 6  # legacy attribute still counts


def test_ring_algo_labeled(obs_run):
    """A ring-reduce run records under algo="ring" without disturbing

    the linear run's series (labels keep topologies separate)."""
    reg = ensure_core_series(MetricsRegistry())
    previous = set_default_registry(reg)
    try:
        run_distributed_insitu(
            _trajectories(2), chunk_size=CHUNK, consolidate_every=EVERY,
            seed=0, reduce_algo="ring", **KEYBIN_PARAMS,
        )
    finally:
        set_default_registry(previous)
    algos = {
        s["labels"]["algo"]
        for s in _samples(reg, "insitu_consolidation_rounds_total")
        if s["value"]
    }
    assert algos == {"ring"}

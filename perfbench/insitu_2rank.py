"""insitu-2rank: the paper's in-situ regime on two process ranks.

Each rank streams its own synthetic folding trajectory (200 residues,
10k frames replayed from the start when the window outlasts them); both
trajectories visit one shared phase library. Every 250-frame chunk is one
round: ``encode_frames`` → ``partial_fit`` → ``consolidate_streaming_state``
→ ``refresh``, then rank 0 publishes the model to a ``ModelRegistry``. At
the end each rank labels its whole trajectory with the final model and the
pooled labels are scored by NMI against the simulated phases.

After every round the ranks agree whether to stop through one tiny
allreduce of their own (rank 0 watches the clock); it is the benchmark's
control traffic, outside the round and outside the consolidation counts.

Rounds are timed in wall time, so waiting for the peer in the collective
counts. Before every round both ranks run the host-speed reference
(:class:`harness.SpeedGauge`, wall clock), and each round is scaled to
reference seconds by rank 0's reference times just before and after it.
Throughput is frames of both ranks per reference second of rounds.
"""

from __future__ import annotations

import numpy as np

from harness import Outcome, SpeedGauge, Tracer, busy_s, durations, interleaved_overhead
from harness import median_setup, named, now, p50, tail, unattributed_frac, vm_hwm_mb

from repro.comm.base import ReduceOp
from repro.comm.spmd import run_spmd
from repro.core.streaming import StreamingKeyBin2
from repro.insitu.distributed import consolidate_streaming_state
from repro.metrics.external import normalized_mutual_info
from repro.proteins import TrajectorySimulator
from repro.proteins.encode import encode_frames
from repro.serve.registry import ModelRegistry

RANKS = 2
N_RESIDUES = 200
N_FRAMES = 10_000
N_PHASES = 4
CHUNK = 250
#: exact counts cover this many rounds in every run
COUNT_ROUNDS = 16
TAIL_PCT = 90.0
NMI_FLOOR = 0.20
SETUP_REPEATS = 3
#: the estimator and the phase library are fixed; only the trajectories'
#: dynamics vary by seed
ESTIMATOR_SEED = 0
LIBRARY_SEED = 2


def _rank(comm, seed, targets, seconds, traced, measure):
    rank = comm.rank
    traj = TrajectorySimulator(
        n_residues=N_RESIDUES, n_frames=N_FRAMES, n_phases=N_PHASES,
        phase_targets=targets, seed=np.random.default_rng([seed, 1, rank]),
    ).simulate(name=f"rank{rank}")
    skb = StreamingKeyBin2(seed=ESTIMATOR_SEED, feature_range=(0.0, 6.0),
                           candidate_depths=(5, 6, 7, 8))
    registry = ModelRegistry() if rank == 0 else None
    comm.barrier()
    ready = now()
    if not measure:
        return {"ready": ready}

    tracer = Tracer()
    gauge = SpeedGauge(now)
    rounds, ingest, stamps, marks = [], [], [], []
    counts = {"bytes": 0, "messages": 0, "cells": 0, "candidates": 0,
              "gflop": 0.0, "gb": 0.0}
    deadline = ready + seconds
    r = 0
    while True:
        # Traced runs alternate traced and untraced rounds, so the
        # tracer's own cost is measured inside one run.
        tracer.enabled = traced and r % 2 == 1
        start = (r * CHUNK) % N_FRAMES
        marks.append(gauge.mark())
        r0 = now()
        with tracer.span("round"):
            with tracer.span("encode", layer="proteins"):
                feats = encode_frames(traj.angles[start:start + CHUNK])
            with tracer.span("partial_fit", layer="core", rows=CHUNK):
                skb.partial_fit(feats)
            ingest.append(now() - r0)
            before = comm.traffic.snapshot()
            enter = now()
            with tracer.span("consolidate", layer="comm"):
                consolidate_streaming_state(comm, skb)
            stamps.append((enter, now(), tracer.enabled))
            after = comm.traffic.snapshot()
            with tracer.span("refresh", layer="core"):
                skb.refresh()
            if registry is not None:
                with tracer.span("publish", layer="serve"):
                    registry.publish(skb.model_)
        rounds.append((now() - r0, tracer.enabled))
        if r < COUNT_ROUNDS:
            n_rp = sum(st.matrix.shape[1] for st in skb._states)
            depths = len(skb.candidate_depths)
            counts["bytes"] += after["bytes_sent"] - before["bytes_sent"]
            counts["messages"] += after["messages_sent"] - before["messages_sent"]
            counts["cells"] += depths * sum(len(st.keys) for st in skb._states)
            counts["candidates"] += depths * len(skb._states)
            counts["gflop"] += 2.0 * CHUNK * N_RESIDUES * n_rp / 1e9
            counts["gb"] += 8.0 * CHUNK * (N_RESIDUES + 2 * n_rp) / 1e9
        r += 1
        with tracer.span("control"):
            done = int(rank == 0 and r >= COUNT_ROUNDS and now() >= deadline)
            if comm.allreduce(np.array([done]), op=ReduceOp.MAX)[0]:
                break
    window = now() - ready
    gauge.mark()
    scaled = [gauge.scale(d, k) for (d, _), k in zip(rounds, marks)]
    scaled_ingest = [gauge.scale(d, k) for d, k in zip(ingest, marks)]

    labels = skb.predict(encode_frames(traj.angles))
    return {
        "ready": ready, "window": window, "rounds": rounds,
        "scaled_rounds": scaled, "scaled_ingest": scaled_ingest,
        "reference_s": float(np.median(gauge.marks)),
        "stamps": stamps, "counts": counts,
        "spans": tracer.spans, "labels": labels, "phases": traj.phase_ids,
        "fingerprint": skb.model_.fingerprint(), "n_seen": skb.n_seen_,
        "n_clusters": skb.n_clusters_, "rss_mb": vm_hwm_mb(),
        "published": None if registry is None else registry.current().version,
    }


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()

    def once(last: bool):
        t0 = now()
        # The shared phase library: both trajectories visit the same
        # metastable conformations with independent dynamics.
        targets = TrajectorySimulator(
            n_residues=N_RESIDUES, n_frames=100, n_phases=N_PHASES,
            seed=LIBRARY_SEED,
        ).simulate().phase_targets
        res = run_spmd(_rank, RANKS, executor="process", timeout=120.0,
                       args=(seed, targets, seconds, traced, last))
        return res[0]["ready"] - t0, res

    setup_s, setup_all, ranks = median_setup(once, SETUP_REPEATS)
    lead = ranks[0]
    n_rounds = len(lead["rounds"])
    frames = RANKS * n_rounds * CHUNK
    out.attempted = RANKS * n_rounds * 4 + n_rounds  # + rank 0's publishes

    nmi = float(normalized_mutual_info(
        np.concatenate([r["phases"] for r in ranks]),
        np.concatenate([r["labels"] for r in ranks]),
    ))
    out.check(nmi >= NMI_FLOOR, f"phase NMI {nmi:.3f} below floor {NMI_FLOOR}")
    out.check(len({r["fingerprint"] for r in ranks}) == 1,
              "ranks ended with different models")
    out.check(all(len(r["rounds"]) == n_rounds for r in ranks),
              "ranks ran different round counts")
    out.check(all(r["n_seen"] == frames for r in ranks),
              f"merged frame count differs from the {frames} frames fed")
    out.check(lead["published"] == n_rounds,
              f"registry at version {lead['published']} after {n_rounds} rounds")

    round_ms = [d * 1e3 for d in lead["scaled_rounds"]]
    tail_ms, tail_pct, n_tail = tail(round_ms, TAIL_PCT)
    throughput = frames / sum(lead["scaled_rounds"])
    rss = sum(r["rss_mb"] for r in ranks)
    c = lead["counts"]
    out.counts = {
        "partial_fit.computed_gflop": c["gflop"],
        "partial_fit.computed_gb": c["gb"],
        "refresh.cells": c["cells"],
        "refresh.candidates": c["candidates"],
        "consolidate.bytes_per_round": c["bytes"] / COUNT_ROUNDS,
        "consolidate.messages_per_round": c["messages"] / COUNT_ROUNDS,
    }
    out.named = {
        "setup_s": (setup_s, "s"),
        "ingest_rows_per_s": (throughput, "frames/s"),
        "round_p50_ms": (p50(round_ms), "ms"),
        f"round_p{tail_pct:g}_ms": (tail_ms, f"ms, n={n_tail}"),
        "chunk_ingest_p50_ms": (p50(lead["scaled_ingest"]) * 1e3, "ms"),
        "phase_nmi": (nmi, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.info = {"setup_runs_s": setup_all, "tail_pct": tail_pct,
                "tail_samples": n_tail, "rounds": n_rounds,
                "frames": frames, "n_clusters": lead["n_clusters"],
                "window_s": lead["window"], "reference_s": lead["reference_s"]}
    if not traced:
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": throughput,
            "op_p50_ms": p50(round_ms),
            "op_tail_ms": tail_ms,
            "op2_p50_ms": p50(lead["scaled_ingest"]) * 1e3,
            "quality": nmi,
            "peak_rss_mb": rss,
        }
        return out

    spans = [s for r in ranks for s in r["spans"]]
    # Consolidation wait: how long each rank sat in the collective before
    # the last peer entered it, from the ranks' shared monotonic clock.
    waits = self_s = 0.0
    calls = 0
    for per_round in zip(*(r["stamps"] for r in ranks)):
        last_in = max(enter for enter, _, _ in per_round)
        for enter, leave, was_traced in per_round:
            if was_traced:
                calls += 1
                waits += last_in - enter
                self_s += leave - last_in
    fits = named(spans, "partial_fit")
    out.metrics = {
        "partial_fit.calls": len(fits),
        "partial_fit.busy_s": busy_s(spans, "partial_fit"),
        "partial_fit.rows_per_s": CHUNK * len(fits) / busy_s(spans, "partial_fit"),
        "refresh.calls": len(named(spans, "refresh")),
        "refresh.busy_s": busy_s(spans, "refresh"),
        "refresh.p50_ms": p50(durations(named(spans, "refresh"))) * 1e3,
        "consolidate.calls": calls,
        "consolidate.self_s": self_s,
        "consolidate.wait_s": waits,
        "encode.busy_s": busy_s(spans, "encode"),
        "publish.p50_ms": p50(durations(named(spans, "publish"))) * 1e3,
        "unattributed_frac": unattributed_frac(spans, "round"),
        "trace.overhead_frac": interleaved_overhead(lead["rounds"]),
        **out.counts,
    }
    out.spans = spans
    return out

"""batch-fit: the paper's Table 1/2 experiment.

One 300k × 64, 16-cluster Gaussian mixture is fitted by ``KeyBin2.fit`` in
this process, and by ``keybin2_spmd`` on two rank processes over two
contiguous shards. The two fits alternate until the measured window has
passed. The single-process fit is timed in the CPU time of the thread that
runs it (BLAS is pinned to one thread). The 2-rank fit is timed in wall
time, so its collectives and message passing count: each rank from a
barrier after the ranks are up (process spawn excluded) to the end of
``keybin2_spmd``, and the slowest rank's time is the fit's. This is the
only traffic through the unfused reference kernels and the batch/SPMD
model tail. Both fits are scaled to reference seconds by the host-speed
reference (:class:`harness.SpeedGauge`, its out-of-cache size) run just
before and just after each fit, by the fit's own clock.

Peak memory is this process's peak plus what each rank allocated on top
of the pages it inherited at fork (the input rows among them), so the
input is counted once. It is read over the first ``MEMORY_ITERATIONS``
iterations, which every run completes: peaks crept up with the number of
fits, and so with host speed.
"""

from __future__ import annotations

import os

import numpy as np

from harness import Mixture, Outcome, Tracer, busy_s, cpu, interleaved_overhead
from harness import median_setup, now, p50, tail, unattributed_frac, vm_hwm_mb
from harness import SpeedGauge, vm_rss_mb

from repro.comm.spmd import run_spmd
from repro.core.distributed import keybin2_spmd
from repro.core.estimator import KeyBin2
from repro.metrics.external import adjusted_rand_index

RANKS = 2
N_ROWS = 300_000
N_DIMS = 64
N_CLUSTERS = 16
#: fewer than twenty fits per run, so the tail is the slowest fit
TAIL_PCT = 100.0
ARI_FLOOR = 0.70
SETUP_REPEATS = 3
#: the host-speed reference for whole-dataset fits (out of cache, ~90 ms)
GAUGE_ROWS = 100_000
MEMORY_ITERATIONS = 2
#: the estimators' configuration is fixed; only the input rows vary by seed
ESTIMATOR_SEED = 0


def _ready(comm):
    comm.barrier()
    return now()


def _spmd_fit(comm, x, traced):
    inherited_mb = vm_rss_mb()
    lo = comm.rank * len(x) // comm.size
    hi = (comm.rank + 1) * len(x) // comm.size
    tracer = Tracer(enabled=traced)
    comm.barrier()
    before = comm.traffic.snapshot()
    t0, c0 = now(), cpu()
    with tracer.span("spmd_fit", layer="core", rows=hi - lo):
        labels, model = keybin2_spmd(comm, x[lo:hi], seed=ESTIMATOR_SEED)
    seconds, cpu_seconds = now() - t0, cpu() - c0
    after = comm.traffic.snapshot()
    return {
        "seconds": seconds, "cpu_seconds": cpu_seconds, "labels": labels,
        "fingerprint": model.fingerprint(), "n_clusters": model.n_clusters,
        "bytes": after["bytes_sent"] - before["bytes_sent"],
        "messages": after["messages_sent"] - before["messages_sent"],
        "spans": tracer.spans, "rss_mb": vm_hwm_mb() - inherited_mb,
    }


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()

    def once(_last: bool):
        t0 = now()
        data = Mixture(N_DIMS, N_CLUSTERS).sample(N_ROWS, seed, 5)
        ready = run_spmd(_ready, RANKS, executor="process", args=(),
                         timeout=60.0)
        return max(ready) - t0, data

    setup_s, setup_all, (x, y) = median_setup(once, SETUP_REPEATS)
    tracer = Tracer()
    fit_gauge = SpeedGauge(cpu, rows=GAUGE_ROWS)
    spmd_gauge = SpeedGauge(now, rows=GAUGE_ROWS)
    fits, spmd, spmd_cpu = [], [], []
    units = []  # (single + 2-rank fit seconds, traced) in run order
    fingerprints, spmd_fingerprints = set(), set()
    rank_rss = parent_rss = 0.0
    deadline = now() + seconds
    i = 0
    while i < MEMORY_ITERATIONS or now() < deadline:
        tracer.enabled = traced and i % 2 == 1
        u0 = now()
        with tracer.span("iteration"):
            k = fit_gauge.mark()
            t0 = cpu()
            with tracer.span("fit", layer="core", rows=N_ROWS):
                est = KeyBin2(seed=ESTIMATOR_SEED).fit(x)
            seconds = cpu() - t0
            fit_gauge.mark()
            fits.append(fit_gauge.scale(seconds, k))
            k = spmd_gauge.mark()
            with tracer.span("spmd", layer="comm"):
                ranks = run_spmd(_spmd_fit, RANKS, executor="process",
                                 args=(x, tracer.enabled), timeout=120.0)
            spmd_gauge.mark()
        units.append((now() - u0, tracer.enabled))
        spmd.append(spmd_gauge.scale(max(r["seconds"] for r in ranks), k))
        spmd_cpu.append(max(r["cpu_seconds"] for r in ranks))
        for r in ranks:
            tracer.spans.extend(r["spans"])
        out.attempted += 1 + RANKS
        fingerprints.add(est.model_.fingerprint())
        spmd_fingerprints.update(r["fingerprint"] for r in ranks)
        if i < MEMORY_ITERATIONS:
            rank_rss = max(rank_rss, sum(r["rss_mb"] for r in ranks))
            parent_rss = vm_hwm_mb()
        i += 1

    ari = float(adjusted_rand_index(y, est.labels_))
    spmd_ari = float(adjusted_rand_index(y, np.concatenate([r["labels"] for r in ranks])))
    out.check(ari >= ARI_FLOOR, f"fit ARI {ari:.3f} below floor {ARI_FLOOR}")
    out.check(spmd_ari >= ARI_FLOOR,
              f"2-rank fit ARI {spmd_ari:.3f} below floor {ARI_FLOOR}")
    out.check(len(fingerprints) == 1, "repeated fits gave different models")
    out.check(len(spmd_fingerprints) == 1,
              "2-rank fits disagree across ranks or repeats")

    tail_ms, tail_pct, n_fits = tail([f * 1e3 for f in fits], TAIL_PCT)
    rss = parent_rss + rank_rss
    out.counts = {"spmd_fit.bytes": ranks[0]["bytes"],
                  "spmd_fit.messages": ranks[0]["messages"]}
    out.named = {
        "setup_s": (setup_s, "s"),
        "fit_s": (p50(fits), "s"),
        f"fit_p{tail_pct:g}_s": (tail_ms / 1e3, f"s, n={n_fits}"),
        "spmd_fit_s": (p50(spmd), "s"),
        "spmd_fit_cpu_s": (p50(spmd_cpu), "s"),
        "fit_rows_per_s": (N_ROWS / p50(fits), "rows/s"),
        "ari": (ari, "1"),
        "spmd_ari": (spmd_ari, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.info = {"setup_runs_s": setup_all, "fits_s": fits, "spmd_fits_s": spmd,
                "spmd_fits_cpu_s": spmd_cpu,
                "reference_s": p50(fit_gauge.marks),
                "tail_pct": tail_pct, "tail_samples": n_fits,
                "n_clusters": est.n_clusters_,
                "spmd_n_clusters": ranks[0]["n_clusters"],
                "same_model_as_spmd": fingerprints == spmd_fingerprints}
    if not traced:
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": N_ROWS / p50(fits),
            "op_p50_ms": p50(fits) * 1e3,
            "op_tail_ms": tail_ms,
            "op2_p50_ms": p50(spmd) * 1e3,
            "quality": ari,
            "peak_rss_mb": rss,
        }
        return out

    spans = tracer.spans
    out.metrics = {
        "fit.busy_s": busy_s(spans, "fit"),
        "spmd_fit.busy_s": busy_s(spans, "spmd_fit"),
        "unattributed_frac": unattributed_frac(
            [s for s in spans if s["pid"] == os.getpid()], "iteration"),
        "trace.overhead_frac": interleaved_overhead(units),
        **out.counts,
    }
    out.spans = spans
    return out

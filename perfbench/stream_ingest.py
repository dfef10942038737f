"""stream-ingest: one process feeds a stationary mixture to a fused
``StreamingKeyBin2``.

A 64-feature, 16-cluster Gaussian mixture arrives in 25k-row batches;
``refresh`` runs after every 10th batch (one refresh cycle), and the run
ends on a refresh once the measured window has passed. The final model
labels a held-out slice, scored by ARI against the mixture's components.

Throughput is rows per CPU second of the ``partial_fit`` and ``refresh``
calls over the median refresh cycle; latency is per ``partial_fit`` call,
and the refresh is timed on its own. All of it runs in this thread (BLAS
is pinned to one thread), so it is timed in thread CPU time, and every
call is scaled to reference seconds by the host-speed reference run just
before and after it (:class:`harness.SpeedGauge`). Drawing a batch is the
benchmark's own work and is not timed.
"""

from __future__ import annotations

from harness import Mixture, Outcome, Tracer, busy_s, cpu, durations, named, now, p50
from harness import interleaved_overhead, median_setup, tail, unattributed_frac
from harness import SpeedGauge, vm_hwm_mb

from repro.core.streaming import StreamingKeyBin2
from repro.metrics.external import adjusted_rand_index

N_DIMS = 64
N_CLUSTERS = 16
BATCH_ROWS = 25_000
REFRESH_EVERY = 10
HOLDOUT_ROWS = 50_000
#: exact counts cover this many refresh cycles in every run
COUNT_CYCLES = 4
TAIL_PCT = 90.0
#: refresh CPU time cycles with this period (about 80 / 110 / 150 ms), so
#: its figure is the median, over every stretch of this many consecutive
#: refreshes, of the stretch's mean
REFRESH_PERIOD = 3
ARI_FLOOR = 0.70
SETUP_REPEATS = 9
#: the estimator's configuration is fixed; only the input rows vary by seed
ESTIMATOR_SEED = 0


def _setup(seed: int):
    def once(_last: bool):
        t0 = now()
        mix = Mixture(N_DIMS, N_CLUSTERS)
        holdout = mix.sample(HOLDOUT_ROWS, seed, 0)
        skb = StreamingKeyBin2(seed=ESTIMATOR_SEED)
        return now() - t0, (mix, holdout, skb)

    return median_setup(once, SETUP_REPEATS)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setup_s, setup_all, (mix, (x_hold, y_hold), skb) = _setup(seed)
    tracer = Tracer()
    gauge = SpeedGauge()
    fits, refreshes = [], []  # (CPU seconds, gauge mark before the call)
    cycles = []  # (duration, traced) in run order
    cells = candidates = 0
    gflop = gbytes = 0.0
    batches = 0
    deadline = now() + seconds
    cycle = 0
    while cycle < COUNT_CYCLES or now() < deadline:
        # Traced runs alternate traced and untraced refresh cycles, so
        # the tracer's own cost is measured inside one run.
        tracer.enabled = traced and cycle % 2 == 1
        c0 = cpu()
        with tracer.span("cycle"):
            for _ in range(REFRESH_EVERY):
                with tracer.span("generate"):
                    x, _ = mix.sample(BATCH_ROWS, seed, 1, batches)
                k = gauge.mark()
                t0 = cpu()
                with tracer.span("partial_fit", layer="core", rows=BATCH_ROWS):
                    skb.partial_fit(x)
                fits.append((cpu() - t0, k))
                batches += 1
            k = gauge.mark()
            t0 = cpu()
            with tracer.span("refresh", layer="core"):
                skb.refresh()
            refreshes.append((cpu() - t0, k))
        cycles.append((cpu() - c0, tracer.enabled))
        out.attempted += REFRESH_EVERY + 1
        if cycle < COUNT_CYCLES:
            # Computed from shapes: one GEMM over every projection, then
            # each projected coordinate is written once and read once by
            # the binning pass.
            n_rp = sum(st.matrix.shape[1] for st in skb._states)
            rows = REFRESH_EVERY * BATCH_ROWS
            gflop += 2.0 * rows * N_DIMS * n_rp / 1e9
            gbytes += 8.0 * rows * (N_DIMS + 2 * n_rp) / 1e9
            depths = len(skb.candidate_depths)
            cells += depths * sum(len(st.keys) for st in skb._states)
            candidates += depths * len(skb._states)
        cycle += 1
    gauge.mark()
    fits = [gauge.scale(s, k) for s, k in fits]
    refreshes = [gauge.scale(s, k) for s, k in refreshes]
    busy = [sum(fits[c * REFRESH_EVERY:(c + 1) * REFRESH_EVERY]) + refreshes[c]
            for c in range(len(refreshes))]
    refresh_ms = p50([sum(refreshes[i:i + REFRESH_PERIOD]) / REFRESH_PERIOD * 1e3
                      for i in range(len(refreshes) - REFRESH_PERIOD + 1)])

    rows = batches * BATCH_ROWS
    tracer.enabled = traced
    with tracer.span("predict", layer="core", rows=HOLDOUT_ROWS):
        labels = skb.predict(x_hold)
    out.attempted += 1
    ari = float(adjusted_rand_index(y_hold, labels))
    out.check(ari >= ARI_FLOOR, f"ARI {ari:.3f} below floor {ARI_FLOOR}")
    out.check(skb.n_seen_ == rows, f"n_seen {skb.n_seen_} != rows fed {rows}")

    throughput = REFRESH_EVERY * BATCH_ROWS / p50(busy)
    fit_ms = [f * 1e3 for f in fits]
    tail_ms, tail_pct, n_fits = tail(fit_ms, TAIL_PCT)
    rss = vm_hwm_mb()
    out.counts = {
        "partial_fit.computed_gflop": gflop,
        "partial_fit.computed_gb": gbytes,
        "refresh.cells": cells,
        "refresh.candidates": candidates,
    }
    out.named = {
        "setup_s": (setup_s, "s"),
        "ingest_rows_per_s": (throughput, "rows/s"),
        "partial_fit_p50_ms": (p50(fit_ms), "ms"),
        f"partial_fit_p{tail_pct:g}_ms": (tail_ms, f"ms, n={n_fits}"),
        "refresh_p50_ms": (refresh_ms, "ms"),
        "ari": (ari, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.info = {"setup_runs_s": setup_all, "tail_pct": tail_pct,
                "tail_samples": n_fits, "rows": rows,
                "reference_s": p50(gauge.marks),
                "refreshes_ms": [r * 1e3 for r in refreshes],
                "n_clusters": skb.n_clusters_}
    if not traced:
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": throughput,
            "op_p50_ms": p50(fit_ms),
            "op_tail_ms": tail_ms,
            "op2_p50_ms": refresh_ms,
            "quality": ari,
            "peak_rss_mb": rss,
        }
        return out

    spans = tracer.spans
    traced_fits = named(spans, "partial_fit")
    out.metrics = {
        "partial_fit.calls": len(traced_fits),
        "partial_fit.busy_s": busy_s(spans, "partial_fit"),
        "partial_fit.rows_per_s": BATCH_ROWS * len(traced_fits) / busy_s(spans, "partial_fit"),
        "refresh.calls": len(named(spans, "refresh")),
        "refresh.busy_s": busy_s(spans, "refresh"),
        "refresh.p50_ms": p50(durations(named(spans, "refresh"))) * 1e3,
        "predict.rows_per_s": HOLDOUT_ROWS / busy_s(spans, "predict"),
        "unattributed_frac": unattributed_frac(spans, "cycle"),
        "trace.overhead_frac": interleaved_overhead(cycles),
        **out.counts,
    }
    out.spans = spans
    return out

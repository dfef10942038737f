#!/usr/bin/env python3
"""Layered benchmark of KeyBin2 ingest, in-situ analysis, batch fit and
fleet serving.

One workload, one run::

    python3 perfbench/run.py --workload stream-ingest --seed 1 --seconds 20 --trace 0

prints the workload's figures under their own names, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. It exits nonzero when a correctness check fails.

Every workload, untraced then traced, plus the exact-count self-check (a
second traced run at the same seed whose counts must match exactly)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program under test is imported from
``src/``. Spans of traced runs and one record per run (with the host
fingerprint) are written under ``perfbench/.out/``. BLAS is pinned to one
thread per process so that ranks × threads never exceeds the core count.
"""

from __future__ import annotations

import os

# Before numpy loads anywhere, including rank and replica processes,
# which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Dict, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "stream-ingest": "stream_ingest",
    "insitu-2rank": "insitu_2rank",
    "batch-fit": "batch_fit",
    "serve-fleet": "serve_fleet",
}

#: name -> unit; every workload reports each of these with --trace 0
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op2_p50_ms": "ms",
    "quality": "1",
    "peak_rss_mb": "MB",
}

#: name -> unit; every workload reports each of these with --trace 1 (a
#: layer a workload does not exercise reads 0)
PER_LAYER = {
    "partial_fit.calls": "count",
    "partial_fit.busy_s": "s",
    "partial_fit.rows_per_s": "rows/s",
    "partial_fit.computed_gflop": "GFLOP",
    "partial_fit.computed_gb": "GB",
    "refresh.calls": "count",
    "refresh.busy_s": "s",
    "refresh.p50_ms": "ms",
    "refresh.cells": "count",
    "refresh.candidates": "count",
    "consolidate.calls": "count",
    "consolidate.self_s": "s",
    "consolidate.wait_s": "s",
    "consolidate.bytes_per_round": "B",
    "consolidate.messages_per_round": "count",
    "encode.busy_s": "s",
    "publish.p50_ms": "ms",
    "fit.busy_s": "s",
    "spmd_fit.busy_s": "s",
    "spmd_fit.bytes": "B",
    "spmd_fit.messages": "count",
    "predict.rows_per_s": "rows/s",
    "model.predict_1row_us": "us",
    "model.predict_batch_us_per_row": "us",
    "service.predict_rows_us": "us",
    "wire.json_roundtrip_us": "us",
    "replica.rtt_p50_ms": "ms",
    "router.added_ms": "ms",
    "batcher.mean_batch": "rows",
    "cache.hit_rate": "1",
    "cache.hits": "count",
    "cache.misses": "count",
    "generator.lag_tail_ms": "ms",
    "serve.failed": "count",
    "fleet.failed": "count",
    "host.steal_frac": "1",
    "unattributed_frac": "1",
    "trace.overhead_frac": "1",
}


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program under test at {SRC}; run from a checkout "
            "of the repository\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    _import_program()
    from harness import OUT_DIR, StealMeter, host_fingerprint, write_spans

    module = importlib.import_module(WORKLOADS[workload])
    host = host_fingerprint()
    print("host: " + json.dumps(host), flush=True)
    stolen = StealMeter()
    out = module.run(seed, seconds, traced)
    # CPU time the hypervisor gave to other guests during the run: context
    # for any timing that moved between runs.
    steal = stolen.share()

    if traced:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(out.metrics)
        metrics["host.steal_frac"] = steal
        table = PER_LAYER
    else:
        metrics = out.metrics
        table = END_TO_END
    unknown = set(metrics) - set(table)
    missing = set(table) - set(metrics)
    if unknown or missing:
        raise RuntimeError(f"metric table mismatch: unknown {sorted(unknown)}, "
                           f"missing {sorted(missing)}")
    correct = not out.problems and out.failed == 0

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        write_spans(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"), out.spans)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host, "host_steal_share": steal,
        "correct": correct, "problems": out.problems,
        "named": out.named, "info": out.info, "counts": out.counts,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{workload} (seed {seed}, {'traced' if traced else 'untraced'}):")
    for name, (value, unit) in out.named.items():
        print(f"  {name:<24} {value:>14.6g}  {unit}")
    error_rate = out.failed / max(out.attempted, 1)
    print(f"  {'error_rate':<24} {error_rate:>14.6g}  {out.failed}/{out.attempted}")
    print(f"  {'host steal share':<24} {steal:>14.6g}  1")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": table[name]}
                    for name in table},
    }), flush=True)
    return 0 if correct else 1


def _child(workload: str, seed: int, seconds: float, traced: bool):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("host: "):
            print(line)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def _counts(workload: str, seed: int) -> Optional[Dict[str, float]]:
    """Exact counts of the latest traced run of ``workload`` at ``seed``."""
    from harness import OUT_DIR

    counts = None
    try:
        with open(os.path.join(OUT_DIR, "results.jsonl")) as fh:
            for line in fh:
                record = json.loads(line)
                if (record["workload"], record["seed"], record["trace"]) == (
                        workload, seed, 1):
                    counts = record["counts"]
    except FileNotFoundError:
        pass
    return counts


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, traced, and traced again for the counts."""
    status = 0
    for workload in WORKLOADS:
        for traced in (False, True):
            code, result = _child(workload, seed, seconds, traced)
            status |= code
            if result is not None:
                for name, m in result["metrics"].items():
                    print(f"    {name:<34} {m['value']:>14.6g}  {m['unit']}")
        # Exact-count self-check: counts cover a fixed prefix of the work,
        # so a short second run at the same seed must reproduce them.
        first = _counts(workload, seed)
        code, _ = _child(workload, seed, 1, True)
        status |= code
        second = _counts(workload, seed)
        if code != 0 or first is None or first != second:
            print(f"  COUNT CHECK FAILED for {workload}: {first} != {second}")
            status |= 1
        else:
            print(f"  exact counts repeat: {first}")
    print("all workloads: " + ("ok" if status == 0 else "FAILED"))
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _import_program()
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

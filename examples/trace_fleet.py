#!/usr/bin/env python3
"""Distributed tracing through a fleet: record spans, rebuild the trees.

Runs a 2-replica fleet in-process with the request tracer enabled,
drives traced predicts through the router — including one forced
failover (a replica dies mid-run) — and writes every span to a JSONL
trace file. The recorded file is then rebuilt and printed with the same
code behind ``python -m repro obs-trace``, which is exactly how CI
smokes the whole pipeline:

    python examples/trace_fleet.py /tmp/fleet-trace.jsonl
    python -m repro obs-trace /tmp/fleet-trace.jsonl

Run:  python examples/trace_fleet.py [trace-file]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.core import KeyBin2
from repro.data import gaussian_mixture
from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.obs import (
    build_traces,
    configure_tracer,
    load_spans,
    render_trace,
    reset_tracer,
    trace_summary,
)
from repro.serve import ServeClient


def main() -> None:
    trace_path = (
        sys.argv[1] if len(sys.argv) > 1
        else str(Path(tempfile.mkdtemp()) / "fleet-trace.jsonl")
    )
    x, _ = gaussian_mixture(n_points=4000, n_dims=16, n_clusters=4, seed=0)
    train, traffic = x[:2000], x[2000:]
    model = KeyBin2(n_projections=4, seed=0).fit(train).model_

    # Everything below shares the process, so one tracer observes every
    # hop; multi-process deployments pass --trace-out per process and
    # hand obs-trace a glob over the per-pid files instead.
    tracer = configure_tracer(trace_path, sample_rate=1.0, seed=0)
    try:
        with ReplicaSupervisor(model=model, mode="thread",
                               n_replicas=2) as sup:
            endpoints = sup.start()
            with router_in_thread(endpoints, probe_interval_s=60.0) as handle:
                with ServeClient(*handle.address) as client:
                    for i in range(20):
                        client.predict(traffic[i])
                    print(f"20 traced predicts through "
                          f"{len(endpoints)} replicas")

                    # Force a failover: kill one replica, keep predicting
                    # until a forward attempt fails over to the survivor.
                    sup.kill("r0")
                    deadline = time.monotonic() + 15.0
                    i = 0
                    while time.monotonic() < deadline:
                        i += 1
                        client.predict(traffic[i % len(traffic)])
                        if any(s["name"] == "router/forward"
                               and s["status"] == "failover"
                               for s in tracer.sink.spans()):
                            break
                    else:
                        raise SystemExit("no failover observed")
                    print("replica r0 killed: failover recorded")
    finally:
        reset_tracer()  # closes the sink; flushes the trace file

    # Rebuild from the recorded file — the obs-trace pipeline.
    spans = load_spans(trace_path)
    trees = build_traces(spans)
    connected = sum(1 for t in trees.values() if t.connected)
    print(f"\n{len(spans)} spans -> {len(trees)} traces "
          f"({connected} connected) in {trace_path}")

    failover_trees = [
        t for t in trees.values()
        if any(r["status"] == "failover" for r in t.spans.values())
    ]
    assert failover_trees, "expected a failover trace"
    tree = failover_trees[0]
    assert tree.connected, "failover trace must form one connected tree"
    print("\nthe failover trace:")
    print(render_trace(tree))
    summary = trace_summary(tree)
    print(f"accounted {summary['accounted_s'] * 1e3:.2f}ms of "
          f"{summary['total_s'] * 1e3:.2f}ms across "
          f"{summary['spans']} spans")
    print(f"\ninspect any trace with:  python -m repro obs-trace "
          f"{trace_path}")


if __name__ == "__main__":
    main()

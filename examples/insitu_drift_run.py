#!/usr/bin/env python3
"""Open-world in-situ run: drift detection to automatic fleet republish.

A synthetic molecular-dynamics simulation streams frames into an
*adaptive* streaming KeyBin2 — no a-priori feature range, out-of-range
frames widen the grid by exact power-of-two rebins instead of being
clamped. Midway, the simulation escapes the sampled conformational
basin into a fold it has never visited (an abrupt regime change in
feature space). The closed loop this example demonstrates:

1. the first consolidated model is published to a 3-replica serving
   fleet, which answers open-loop predict traffic throughout;
2. the windowed drift detector flags the regime change within one
   window of the switch (total-variation divergence over the deepest
   histograms);
3. a :class:`DriftResponder` automatically re-derives the cluster
   models from the post-drift histograms and republishes them through
   the fleet's **staged rollout** (canary bake -> 50% -> 100%) — while
   the load generator keeps hammering the router, with zero hard
   failures.

Run:  python examples/insitu_drift_run.py
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.drift import DriftResponder
from repro.core.streaming import StreamingKeyBin2
from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.obs import default_registry
from repro.obs.report import stream_table
from repro.proteins import TrajectorySimulator, encode_frames
from repro.serve import ServeClient, run_open_loop

N_RESIDUES = 48
N_FRAMES = 1200          # per regime
CHUNK = 150              # frames per in-situ batch
DRIFT_WINDOW = 300       # frames per detector window (2 chunks)


def simulate_regimes() -> np.ndarray:
    """Frames for two conformational regimes, concatenated.

    Two independently seeded simulators share nothing but the residue
    count, so the second half of the stream is a genuinely new fold —
    the open-world event a fixed-range, fixed-model deployment cannot
    absorb.
    """
    before = TrajectorySimulator(n_residues=N_RESIDUES, n_frames=N_FRAMES,
                                 n_phases=1, seed=7).simulate("basin-A")
    after = TrajectorySimulator(n_residues=N_RESIDUES, n_frames=N_FRAMES,
                                n_phases=1, seed=99).simulate("basin-B")
    frames = np.concatenate([encode_frames(before.angles),
                             encode_frames(after.angles)])
    return frames


def main() -> None:
    frames = simulate_regimes()
    n_chunks = frames.shape[0] // CHUNK
    change_chunk = N_FRAMES // CHUNK
    print(f"{frames.shape[0]:,} frames x {N_RESIDUES} residues in "
          f"{n_chunks} chunks; regime change at chunk {change_chunk}\n")

    skb = StreamingKeyBin2(
        n_projections=6,
        candidate_depths=(4, 5, 6),
        adaptive=True,                 # no a-priori range needed
        drift_window=DRIFT_WINDOW,
        drift_threshold=0.5,
        seed=7,
    )

    # Bootstrap: ingest the first window and publish v1 to the fleet.
    fed = 0
    for _ in range(DRIFT_WINDOW // CHUNK):
        skb.partial_fit(frames[fed:fed + CHUNK])
        fed += CHUNK
    v1 = skb.refresh().model_
    root = Path(tempfile.mkdtemp(prefix="kb2-drift-"))
    v1.save(root / "v1.json")
    print(f"v1 {v1.fingerprint()} published before the regime change")

    with ReplicaSupervisor(model=v1, mode="thread", n_replicas=3) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.05) as handle:
            host, port = handle.address
            print(f"fleet: 3 replicas behind {host}:{port}\n")

            def republish():
                """Save the refreshed models and walk the staged rollout."""
                path = root / f"drift-{skb.model_.fingerprint()}.json"
                skb.model_.save(path)
                with ServeClient(host, port, timeout=60.0) as client:
                    return client.request({"op": "reload", "path": str(path),
                                           "tag": "drift-response"})

            responder = DriftResponder(skb, publish=republish)

            # Open-loop traffic for the whole post-bootstrap stream: the
            # drift response must never be client-visible.
            report_box = {}

            def pour_traffic() -> None:
                report_box["report"] = run_open_loop(
                    host, port, frames[:2000], rate=250.0, duration_s=6.0,
                    n_connections=6, request_timeout_s=10.0)

            loader = threading.Thread(target=pour_traffic)
            loader.start()
            time.sleep(0.5)  # let the router sample live rows for the bake

            while fed + CHUNK <= frames.shape[0]:
                skb.partial_fit(frames[fed:fed + CHUNK])
                fed += CHUNK
                event = responder.step()
                if event is not None:
                    rollout = event.publish_result["rollout"]
                    print(f"chunk {fed // CHUNK:>2}: DRIFT on projection "
                          f"{event.projection} (score {event.score:.2f}) -> "
                          f"refresh + staged republish "
                          f"(state={rollout['state']}, "
                          f"canary={rollout['canary']})")
                time.sleep(0.05)  # in-situ cadence
            loader.join()
            report = report_box["report"]

            with ServeClient(host, port) as client:
                info = client.model_info()

    events = responder.history
    assert events, "regime change was not detected"
    assert all(e.publish_result["rollout"]["state"] == "complete"
               for e in events), "a drift republish did not complete"
    hard = (report.outcomes.get("error", 0)
            + report.outcomes.get("timeout", 0))
    assert hard == 0, f"{hard} client-visible hard failures during response"

    print(f"\nfleet now serves fingerprint {info['fingerprint']} "
          f"(v{info['version']}) — {len(events)} drift response(s), "
          f"grid rebins {sum(st.rebin_count for st in skb._states)}")
    print(f"load during response: {report.requests_sent} sent, "
          f"{report.requests_ok} ok, {hard} hard failures")
    print("\nStream range/drift telemetry (as rendered by obs-report):")
    print(stream_table(default_registry()))


if __name__ == "__main__":
    main()

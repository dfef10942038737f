#!/usr/bin/env python3
"""Fleet serving: 3 replicas, capacity-aware routing, staged reload.

One `serve` process hot-swaps models under load (see serve_online.py);
`repro.fleet` replicates it. The router speaks the same JSON wire
protocol as a single replica, so the client and load generator below
are the ones from `repro.serve`, unchanged. This example:

1. fits two model versions (same data, different seeds) and saves both;
2. starts 3 replicas under a ReplicaSupervisor plus a FleetRouter that
   balances every request by power-of-two-choices over replica load;
3. sends mixed traffic (single points, batches, model-info) and shows
   the balancing — even repeats of one point spread over the replicas;
4. drives open-loop load while `fleet reload` walks the staged rollout
   (canary bake -> 50% -> 100%) to v2 mid-traffic — zero hard failures;
5. prints the fleet status and per-replica routing counters.

Run:  python examples/serve_fleet.py
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.core import KeyBin2
from repro.data import gaussian_mixture
from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.serve import ServeClient, run_open_loop


def main() -> None:
    x, _ = gaussian_mixture(n_points=6000, n_dims=16, n_clusters=4, seed=0)
    train, traffic = x[:3000], x[3000:]

    # 1. Two deployable artifacts: v1 serves first, v2 rolls out later.
    root = Path(tempfile.mkdtemp())
    v1 = KeyBin2(n_projections=4, seed=0).fit(train).model_
    v2 = KeyBin2(n_projections=4, seed=1).fit(train).model_
    v1_path, v2_path = root / "v1.json", root / "v2.json"
    v1.save(v1_path)
    v2.save(v2_path)
    print(f"v1 {v1.fingerprint()} / v2 {v2.fingerprint()} saved")

    # 2. 3 replicas + router. Thread mode keeps the example single-process;
    #    `python -m repro fleet` runs the same stack with subprocesses.
    with ReplicaSupervisor(model=v1, mode="thread", n_replicas=3) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.05) as handle:
            host, port = handle.address
            print(f"router on {host}:{port} fronting "
                  f"{len(endpoints)} replicas\n")

            # 3. Mixed traffic through the ordinary serving client.
            with ServeClient(host, port) as client:
                single = client.predict(traffic[0])
                print(f"single predict: label={single.label} "
                      f"(v{single.version})")
                batch = client.predict(traffic[:8])
                print(f"batch predict:  labels={batch.labels}")
                info = client.model_info()
                print(f"model-info:     v{info['version']}, "
                      f"fingerprint {info['fingerprint']}")

                # No affinity: the router picks by load, not by point.
                for _ in range(20):
                    client.predict(traffic[0])
                status = client.request({"op": "fleet-status"})
                print(f"routed after 21x same point: "
                      f"{status['routed']}\n")

            # 4. Staged reload to v2 while open-loop traffic runs.
            report_box = {}

            def pour_traffic() -> None:
                report_box["report"] = run_open_loop(
                    host, port, traffic, rate=300.0, duration_s=3.0,
                    n_connections=8, request_timeout_s=10.0)

            loader = threading.Thread(target=pour_traffic)
            loader.start()
            time.sleep(0.5)  # let the router sample live rows for the bake
            with ServeClient(host, port, timeout=60.0) as client:
                t0 = time.perf_counter()
                summary = client.request(
                    {"op": "reload", "path": str(v2_path),
                     "tag": "v2-rollout"})
                took = time.perf_counter() - t0
            loader.join()
            report = report_box["report"]

            rollout = summary["rollout"]
            print(f"staged rollout -> v{summary['version']} in {took:.2f}s "
                  f"(state={rollout['state']}, "
                  f"canary={rollout['canary']}, "
                  f"promoted={rollout['promoted']})")
            hard = (report.outcomes.get("error", 0)
                    + report.outcomes.get("timeout", 0))
            print(f"load during rollout: {report.requests_sent} sent, "
                  f"{report.requests_ok} ok, {hard} hard failures\n")

            # 5. Final fleet view: everyone on v2, traffic spread out.
            with ServeClient(host, port) as client:
                info = client.model_info()
                status = client.request({"op": "fleet-status"})
            print(f"fleet serves fingerprint {info['fingerprint']}")
            for rid, rep in sorted(status["replicas"].items()):
                print(f"  {rid}: healthy={rep['healthy']} "
                      f"fingerprint={rep['fingerprint']} "
                      f"routed={status['routed'].get(rid, {})}")

    print("\nfleet stopped cleanly")


if __name__ == "__main__":
    main()

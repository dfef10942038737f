#!/usr/bin/env python3
"""Online serving: registry hot-swap, micro-batching, live stats.

A fitted KeyBin2 model is a few-KB artifact that labels points by
key → cell lookup — cheap enough to serve online. This example walks the
whole serving story in one process:

1. fit a model, save it atomically, publish it to a ModelRegistry;
2. start the stdlib-only asyncio TCP/JSON server on a background thread;
3. answer single-point and batch predicts through a client;
4. drive closed-loop traffic with the load generator while a *streaming*
   refresh hot-swaps a newer model version under the load — zero failed
   requests, every response stamped with the version that labeled it;
5. read back the server's operational stats (throughput, batch-size
   histogram, cache hit rate).

Run:  python examples/serve_online.py
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.core import KeyBin2, StreamingKeyBin2
from repro.data import gaussian_mixture
from repro.serve import (
    BatchPolicy,
    ModelRegistry,
    ServeClient,
    run_closed_loop,
    serve_in_thread,
)


def main() -> None:
    x, _ = gaussian_mixture(n_points=6000, n_dims=16, n_clusters=4, seed=0)
    train, traffic = x[:3000], x[3000:]

    # 1. Fit and deploy: atomic save -> load -> publish as version 1.
    model = KeyBin2(n_projections=4, seed=0).fit(train).model_
    model_path = Path(tempfile.mkdtemp()) / "model.json"
    model.save(model_path)  # atomic: temp file + os.replace
    print(f"model: {model.n_clusters} clusters, "
          f"fingerprint {model.fingerprint()}, "
          f"{model_path.stat().st_size / 1024:.1f} KB on disk")

    registry = ModelRegistry()
    registry.publish(model, tag="initial-deploy")

    # 2. Serve it (ephemeral port; micro-batch linger capped at 2 ms).
    with serve_in_thread(registry,
                         policy=BatchPolicy(max_delay_s=0.002)) as handle:
        host, port = handle.address
        print(f"serving on {host}:{port}\n")

        # 3. Point queries through the blocking client.
        with ServeClient(host, port) as client:
            result = client.predict(traffic[0])
            print(f"single predict: label={result.label} "
                  f"(model v{result.version})")
            batch = client.predict(traffic[:8])
            print(f"batch predict:  labels={batch.labels}")
            info = client.model_info()
            print(f"model-info:     v{info['version']}, "
                  f"{info['n_clusters']} clusters, depth {info['depth']}\n")

        # 4. Hot-swap under load: a streaming consolidation publishes v2
        #    while the load generator hammers the server.
        def refresh_and_swap() -> None:
            time.sleep(0.1)  # land mid-run
            skb = StreamingKeyBin2(seed=1)
            for start in range(0, 3000, 500):
                skb.partial_fit(train[start:start + 500])
            skb.refresh(publish_to=registry)  # atomic hot-swap -> v2

        swapper = threading.Thread(target=refresh_and_swap)
        swapper.start()
        report = run_closed_loop(host, port, traffic, n_requests=3000,
                                 n_clients=12)
        swapper.join()
        print(report.render())
        print(f"  (hot-swapped to v{registry.current().version} mid-run: "
              f"{report.requests_failed} failures)\n")

        # 5. Operational stats from the server itself.
        with ServeClient(host, port) as client:
            stats = client.stats()
            print(f"server stats: {stats['requests_total']} requests, "
                  f"mean batch {stats['mean_batch_size']}, "
                  f"batch hist {stats['batch_size_hist']}")
            print(f"label cache:  hit rate "
                  f"{stats['cache']['hit_rate']:.2%} "
                  f"({stats['cache']['size']} entries)")
            print(f"versions served (points): {stats['versions_served']}")

    print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()

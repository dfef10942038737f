"""Fleet scaling + zero-downtime-reload benchmark (``fleet-bench`` CLI).

Two questions, answered with process-isolated replicas behind a real
router socket:

1. **Does goodput scale with replicas?** Each replica runs with an
   explicit admission budget (``--admit-rate R``), so per-replica
   capacity is a *policy*, not a guess about the host: one replica
   serves at most R predicts/s, a fleet of N at most N·R. The bench
   offers open-loop demand at ``demand_factor × N·R`` and measures
   goodput (ok responses per second). Near-linear scaling then means the
   router aggregates replica capacity without becoming the bottleneck —
   which is the property a front tier must prove, and one that holds on
   a 1-core CI runner just as it does on a 64-core host (the admission
   budget, not the CPU, is the binding constraint by construction; total
   fleet CPU stays well under one core at the default rates).
2. **Is a staged rollout invisible to clients?** A mixed open-loop load
   runs against a 3-replica fleet while the router executes a full
   canary → staged → complete rollout to a *new* model artifact.
   Acceptance: zero hard failures (``error``/``timeout`` outcomes) —
   explicit sheds are load shaping and stay allowed — and both model
   versions observed in successful responses.

Results land in ``BENCH_serve_fleet.json``; ``--check`` turns the
acceptance thresholds (2-replica scaling ≥ 1.6×, 4-replica ≥ 3×, zero
reload failures) into a process exit code for CI.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ServeError
from repro.fleet.replica import ReplicaSupervisor
from repro.fleet.router import router_in_thread
from repro.serve.client import ServeClient
from repro.serve.loadgen import LoadReport, run_open_loop

__all__ = ["run_fleet_bench", "DEFAULT_OUT_PATH"]

DEFAULT_OUT_PATH = "BENCH_serve_fleet.json"

#: Scaling acceptance floors, by fleet size (vs the 1-replica baseline).
SCALING_FLOORS = {2: 1.6, 4: 3.0}


def _hard_failures(report: LoadReport) -> int:
    """Client-visible failures: transport errors and timeouts, not sheds."""
    return report.outcomes["error"] + report.outcomes["timeout"]


def _fit_demo_models(workdir: str, seed: int):
    """Fit two same-shape models (v1 to serve, v2 to roll out); save both."""
    from repro.core.estimator import KeyBin2
    from repro.data.gaussians import gaussian_mixture

    x, _ = gaussian_mixture(n_points=2000, n_dims=16, n_clusters=4, seed=seed)
    v1 = KeyBin2(n_projections=4, seed=seed).fit(x).model_
    v2 = KeyBin2(n_projections=4, seed=seed + 1).fit(x).model_
    p1 = os.path.join(workdir, "fleet_bench_v1.json")
    p2 = os.path.join(workdir, "fleet_bench_v2.json")
    v1.save(p1)
    v2.save(p2)
    return p1, p2, x


def _report_row(n: int, offered: float, report: LoadReport) -> Dict[str, Any]:
    q = report.latency_quantiles()
    return {
        "replicas": n,
        "offered_rps": round(offered, 1),
        "goodput_rps": round(report.throughput_rps, 1),
        "requests_sent": report.requests_sent,
        "requests_ok": report.requests_ok,
        "shed": report.shed_total,
        "hard_failures": _hard_failures(report),
        "p50_ms": round(q["p50"] * 1e3, 3),
        "p99_ms": round(q["p99"] * 1e3, 3),
    }


def _run_fleet_load(
    model_path: str,
    n_replicas: int,
    admit_rate: float,
    demand_factor: float,
    duration_s: float,
    points: np.ndarray,
    seed: int,
) -> Dict[str, Any]:
    """One scaling point: N capped replicas, open-loop overdemand, goodput."""
    offered = demand_factor * admit_rate * n_replicas
    with ReplicaSupervisor(
        model_path,
        n_replicas=n_replicas,
        mode="process",
        extra_args=["--admit-rate", str(admit_rate),
                    "--admit-burst", str(int(admit_rate))],
    ) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, seed=seed) as handle:
            host, port = handle.address
            report = run_open_loop(
                host, port, points,
                rate=offered, duration_s=duration_s,
                n_connections=max(16, 8 * n_replicas),
                request_timeout_s=10.0,
            )
    row = _report_row(n_replicas, offered, report)
    if report.errors:
        row["first_errors"] = report.errors[:3]
    return row


def _run_reload_under_load(
    model_path: str,
    new_model_path: str,
    n_replicas: int,
    admit_rate: float,
    duration_s: float,
    points: np.ndarray,
    seed: int,
) -> Dict[str, Any]:
    """Staged rollout mid-traffic; returns the combined verdict."""
    with ReplicaSupervisor(
        model_path,
        n_replicas=n_replicas,
        mode="process",
        extra_args=["--admit-rate", str(admit_rate),
                    "--admit-burst", str(int(admit_rate))],
    ) as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, seed=seed) as handle:
            host, port = handle.address
            result: Dict[str, Any] = {}

            def _load() -> None:
                result["report"] = run_open_loop(
                    host, port, points,
                    rate=0.6 * admit_rate * n_replicas,
                    duration_s=duration_s,
                    n_connections=16,
                    request_timeout_s=10.0,
                )

            loader = threading.Thread(target=_load, name="fleet-bench-load")
            loader.start()
            time.sleep(max(0.5, duration_s * 0.25))  # let traffic establish
            t0 = time.perf_counter()
            with ServeClient(host, port, timeout=60.0) as admin:
                new_version = admin.reload(new_model_path, tag="fleet-bench-v2")
                status = admin.request({"op": "fleet-status"})
            rollout_s = time.perf_counter() - t0
            loader.join(timeout=duration_s + 30.0)
            if loader.is_alive():  # pragma: no cover - watchdog
                raise ServeError("fleet-bench load thread wedged")
    report: LoadReport = result["report"]
    row = _report_row(n_replicas, 0.6 * admit_rate * n_replicas, report)
    row.update({
        "new_version": new_version,
        "rollout_s": round(rollout_s, 3),
        "rollout_state": status.get("rollout"),
        "versions_seen": sorted(report.versions_seen),
        "zero_downtime": _hard_failures(report) == 0,
    })
    if report.errors:
        row["first_errors"] = report.errors[:3]
    return row


def run_fleet_bench(
    model_path: Optional[str] = None,
    out_path: Optional[str] = DEFAULT_OUT_PATH,
    fleet_sizes: Sequence[int] = (1, 2, 4),
    admit_rate: float = 250.0,
    demand_factor: float = 1.35,
    duration_s: float = 4.0,
    reload_replicas: int = 3,
    seed: int = 7,
) -> Dict[str, Any]:
    """Run the full fleet bench; returns (and optionally writes) results.

    ``results["passed"]`` aggregates the acceptance thresholds; the
    ``fleet-bench --check`` CLI exits nonzero when it is false.
    """

    def say(msg: str) -> None:
        print(msg, flush=True)

    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as workdir:
        if model_path is None:
            say("fitting demo models (v1 to serve, v2 to roll out) ...")
            path_v1, path_v2, x = _fit_demo_models(workdir, seed)
        else:
            from repro.core.estimator import KeyBin2
            from repro.core.model import KeyBin2Model
            from repro.data.gaussians import gaussian_mixture

            path_v1 = str(model_path)
            loaded = KeyBin2Model.load(path_v1)
            n_features = (
                int(loaded.projection.shape[0])
                if loaded.projection is not None
                else int(loaded.kept_dims.size)
            )
            x, _ = gaussian_mixture(
                n_points=2000, n_dims=n_features, n_clusters=4, seed=seed
            )
            refit = KeyBin2(n_projections=4, seed=seed + 1).fit(x).model_
            path_v2 = os.path.join(workdir, "fleet_bench_v2.json")
            refit.save(path_v2)

        rng = np.random.default_rng(seed)
        points = x[rng.choice(x.shape[0], size=512, replace=False)]

        scaling_rows: List[Dict[str, Any]] = []
        for n in fleet_sizes:
            say(f"scaling: {n} replica(s) at admit-rate {admit_rate:g}/s, "
                f"offering {demand_factor * admit_rate * n:,.0f} req/s ...")
            row = _run_fleet_load(
                path_v1, n, admit_rate, demand_factor, duration_s, points,
                seed,
            )
            say(f"  goodput {row['goodput_rps']:,.1f} req/s "
                f"(ok={row['requests_ok']}, shed={row['shed']}, "
                f"hard_failures={row['hard_failures']})")
            scaling_rows.append(row)

        say(f"reload-under-load: {reload_replicas} replicas, staged rollout "
            "mid-traffic ...")
        reload_row = _run_reload_under_load(
            path_v1, path_v2, reload_replicas, admit_rate, duration_s,
            points, seed,
        )
        say(f"  rollout {reload_row['rollout_state']} in "
            f"{reload_row['rollout_s']}s, versions seen "
            f"{reload_row['versions_seen']}, hard_failures="
            f"{reload_row['hard_failures']}")

    baseline = next(
        (r for r in scaling_rows if r["replicas"] == 1), scaling_rows[0]
    )
    scaling: Dict[str, Any] = {}
    checks: List[Dict[str, Any]] = []
    for row in scaling_rows:
        n = row["replicas"]
        if n == baseline["replicas"] or baseline["goodput_rps"] <= 0:
            continue
        factor = row["goodput_rps"] / baseline["goodput_rps"]
        scaling[str(n)] = round(factor, 3)
        floor = SCALING_FLOORS.get(n)
        if floor is not None:
            checks.append({
                "check": f"goodput_scaling_{n}x",
                "floor": floor,
                "measured": round(factor, 3),
                "passed": factor >= floor,
            })
    checks.append({
        "check": "reload_zero_hard_failures",
        "floor": 0,
        "measured": reload_row["hard_failures"],
        "passed": reload_row["hard_failures"] == 0,
    })
    checks.append({
        "check": "reload_completed",
        "floor": "complete",
        "measured": reload_row["rollout_state"],
        "passed": reload_row["rollout_state"] == "complete",
    })

    results = {
        "bench": "serve_fleet",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "fleet_sizes": list(fleet_sizes),
            "admit_rate_per_replica": admit_rate,
            "demand_factor": demand_factor,
            "duration_s": duration_s,
            "reload_replicas": reload_replicas,
            "seed": seed,
            "note": (
                "Per-replica capacity is fixed by the admission token "
                "bucket, so scaling measures fleet capacity aggregation "
                "and router overhead — not host core count. Demand is "
                "open-loop at demand_factor x aggregate capacity; the "
                "overage is shed by replica admission, by design."
            ),
        },
        "scaling_runs": scaling_rows,
        "scaling_vs_1_replica": scaling,
        "reload_under_load": reload_row,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=False)
            fh.write("\n")
        say(f"wrote {out_path}")
    say("fleet-bench: " + ("PASS" if results["passed"] else "FAIL"))
    return results

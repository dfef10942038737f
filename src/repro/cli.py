"""Command-line entry point: regenerate any paper artifact, or serve a model.

Usage::

    python -m repro table1 [--scale 0.02] [--repeats 3] [--ranks 8]
    python -m repro table2
    python -m repro table3
    python -m repro fig1 | fig2 | fig3 | fig4
    python -m repro ablation-partitioning | ablation-bootstrap | ablation-nrp
    python -m repro comm-volume
    python -m repro all            # everything, small scale

    python -m repro serve --model model.json [--port 8765]
    python -m repro serve-bench --demo --requests 2000 --clients 16
    python -m repro fleet --model model.json --replicas 3 [--port 8900]
    python -m repro fleet-bench [--sizes 1,2,4] [--check]
    python -m repro fleet-recover --journal-dir DIR --endpoints r0=H:P,...
    python -m repro obs-report [--ranks 3] [--frames 160] [--json]
    python -m repro obs-trace traces/*.jsonl [--trace ID] [--json]
    python -m repro obs-dashboard --target r0=127.0.0.1:8765 [--once|--demo]
    python -m repro obs-collect --target r0=127.0.0.1:8765 [--port 9800]

``--scale 1.0`` runs paper-sized experiments (hours on a workstation);
the defaults finish in minutes on a laptop and preserve the shape of
every conclusion. ``serve`` exposes a fitted model over the
:mod:`repro.serve` TCP/JSON protocol; ``serve-bench`` spins up an
in-process server and measures it with the load generator;
``obs-report`` runs an instrumented in-situ workload and renders the
per-phase time and comm-volume breakdowns from the telemetry registry.
``fleet`` runs N replica subprocesses behind a capacity-aware router on
one endpoint (same wire protocol — existing clients work unchanged);
``fleet-bench`` measures goodput scaling at 1→2→4 replicas and a staged
zero-downtime reload under load, recording ``BENCH_serve_fleet.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.runner import ExperimentScale

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate KeyBin2 (ICPP'18) evaluation artifacts.",
        epilog=(
            "Serving commands (own flags; see `python -m repro serve --help`): "
            "serve, serve-bench, fleet, fleet-bench, fleet-recover. "
            "Telemetry: obs-report."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "table2", "table3",
            "fig1", "fig2", "fig3", "fig4",
            "ablation-partitioning", "ablation-bootstrap", "ablation-nrp",
            "ablation-smoother", "comm-volume", "scaling", "all",
        ],
    )
    parser.add_argument("--scale", type=float, default=0.02,
                        help="fraction of the paper's data sizes (1.0 = full)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="independent runs per design point (paper: 20)")
    parser.add_argument("--ranks", type=int, default=None,
                        help="rank count (table1) / max ranks (table2)")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _run_one(name: str, args) -> str:
    scale = ExperimentScale.from_factor(
        args.scale, repeats=args.repeats, max_ranks=args.ranks
    )
    if name == "table1":
        from repro.bench.experiments import run_table1

        n_ranks = args.ranks if args.ranks else 8
        return run_table1(scale=scale, n_ranks=n_ranks, seed=args.seed).render()
    if name == "table2":
        from repro.bench.experiments import run_table2

        return run_table2(scale=scale, seed=args.seed).render()
    if name == "table3":
        from repro.bench.experiments import run_table3

        return run_table3().render()
    if name == "fig1":
        from repro.bench.experiments import run_fig1

        return run_fig1(seed=args.seed or 1).render()
    if name == "fig2":
        from repro.bench.experiments import run_fig2

        return run_fig2(seed=args.seed or 5).render()
    if name == "fig3":
        from repro.bench.experiments import run_fig3

        return run_fig3(scale=max(args.scale, 0.02)).render()
    if name == "fig4":
        from repro.bench.experiments import run_fig4

        return run_fig4(scale=max(args.scale * 10, 0.2)).render()
    if name == "ablation-partitioning":
        from repro.bench.experiments import run_ablation_partitioning

        return run_ablation_partitioning(seed=args.seed).render()
    if name == "ablation-bootstrap":
        from repro.bench.experiments import run_ablation_bootstrap

        return run_ablation_bootstrap(seed=args.seed).render()
    if name == "ablation-nrp":
        from repro.bench.experiments import run_ablation_nrp

        return run_ablation_nrp(seed=args.seed).render()
    if name == "ablation-smoother":
        from repro.bench.experiments import run_ablation_smoother

        return run_ablation_smoother(seed=args.seed).render()
    if name == "comm-volume":
        from repro.bench.experiments import run_comm_volume

        return run_comm_volume(seed=args.seed).render()
    if name == "scaling":
        from repro.bench.scaling import run_scaling

        return run_scaling(seed=args.seed).render()
    raise AssertionError(name)  # pragma: no cover


def _load_or_demo_model(args):
    """Resolve --model / --demo into a fitted KeyBin2Model."""
    from repro.core.model import KeyBin2Model

    if args.model is not None:
        return KeyBin2Model.load(args.model)
    if not args.demo:
        raise SystemExit("need --model PATH or --demo (fit a toy model)")
    from repro.core.estimator import KeyBin2
    from repro.data.gaussians import gaussian_mixture

    x, _ = gaussian_mixture(n_points=2000, n_dims=16, n_clusters=4, seed=args.seed)
    model = KeyBin2(n_projections=4, seed=args.seed).fit(x).model_
    model.meta["demo"] = True
    return model


def _serve_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default=None,
                        help="path to a model JSON written by KeyBin2Model.save")
    parser.add_argument("--demo", action="store_true",
                        help="fit a small synthetic model instead of loading one")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="micro-batch flush size")
    parser.add_argument("--window-ms", type=float, default=5.0,
                        help="cap (milliseconds) on how long a micro-batch "
                             "keeps lingering while rows keep arriving; a "
                             "batch flushes as soon as the event loop stops "
                             "handing it rows (0 = never linger)")
    parser.add_argument("--queue", type=int, default=10_000,
                        help="pending-row bound before backpressure rejections")
    parser.add_argument("--admit-rate", type=float, default=None,
                        help="token-bucket sustained admission rate "
                             "(predicts/s; default: unlimited)")
    parser.add_argument("--admit-burst", type=int, default=100,
                        help="token-bucket burst size above --admit-rate")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        help="bound on concurrently admitted predicts "
                             "(default: unlimited)")
    parser.add_argument("--default-deadline-ms", type=float, default=None,
                        help="deadline applied to predicts that carry no "
                             "deadline_ms (default: none)")
    parser.add_argument("--drain-s", type=float, default=5.0,
                        help="graceful-drain hard cutoff on shutdown (seconds)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export request-trace spans to this JSONL file "
                             "('{pid}' expands per process); absent = tracing "
                             "disabled, zero request overhead")
    parser.add_argument("--trace-sample", type=float, default=1.0,
                        help="head-based sample rate for traces started here "
                             "(error spans always export)")
    parser.add_argument("--seed", type=int, default=0)


def _admission_from_args(args) -> "object":
    from repro.serve.admission import AdmissionPolicy

    return AdmissionPolicy(
        rate=args.admit_rate,
        burst=args.admit_burst,
        max_in_flight=args.max_in_flight,
        default_deadline_ms=args.default_deadline_ms,
    )


def _run_serve(argv: List[str]) -> int:
    import asyncio

    from repro.serve.batcher import BatchPolicy
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import ModelServer

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a fitted KeyBin2 model over TCP/JSON.",
    )
    _serve_common_flags(parser)
    parser.add_argument("--allow-admin", action="store_true",
                        help="serve reload/shutdown ops even on a non-loopback "
                             "--host (default: loopback binds only)")
    parser.add_argument("--metrics-log", default=None, metavar="PATH",
                        help="append periodic JSON telemetry snapshots to "
                             "this file while serving")
    parser.add_argument("--metrics-every", type=float, default=30.0,
                        help="seconds between --metrics-log snapshots")
    args = parser.parse_args(argv)
    if args.trace_out is not None:
        from repro.obs import configure_tracer

        configure_tracer(args.trace_out, sample_rate=args.trace_sample)

    registry = ModelRegistry()
    version = registry.publish(_load_or_demo_model(args), tag="serve-startup")
    policy = BatchPolicy(max_batch=args.max_batch,
                         max_delay_s=args.window_ms / 1000.0,
                         max_queue=args.queue)
    server = ModelServer(registry, host=args.host, port=args.port, policy=policy,
                         allow_admin=True if args.allow_admin else None,
                         admission=_admission_from_args(args),
                         drain_s=args.drain_s)

    async def _run():
        await server.start()
        info = registry.current().info()
        print(f"serving model v{version} (fingerprint {info['fingerprint']}, "
              f"{info['n_clusters']} clusters) on "
              f"{server.host}:{server.bound_port}")
        ops = "predict, model-info, stats, metrics, healthz"
        if server.allow_admin:
            ops += ", reload, shutdown"
        else:
            ops += "  (reload/shutdown disabled; pass --allow-admin)"
        print(f"ops: {ops}")
        await server.serve_until_shutdown()

    def _serve_forever():
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    if args.metrics_log is not None:
        from repro.obs import SnapshotLogger, default_registry

        with SnapshotLogger(
            args.metrics_log,
            interval_s=args.metrics_every,
            registries=[server.stats.registry, default_registry()],
        ):
            _serve_forever()
    else:
        _serve_forever()
    return 0


def _run_serve_bench(argv: List[str]) -> int:
    from repro.data.gaussians import gaussian_mixture
    from repro.serve.batcher import BatchPolicy
    from repro.serve.loadgen import run_closed_loop, run_open_loop
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import serve_in_thread

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-bench",
        description="Measure serving throughput with the load generator.",
    )
    _serve_common_flags(parser)
    parser.add_argument("--requests", type=int, default=2000,
                        help="closed-loop request count")
    parser.add_argument("--clients", type=int, default=16,
                        help="closed-loop concurrent clients / open-loop conns")
    parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="open-loop arrival rate (req/s)")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="open-loop duration (seconds)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="attach this latency budget to every request")
    parser.add_argument("--request-timeout", type=float, default=None,
                        help="client-side per-request timeout (seconds); "
                             "expiries count as 'timeout' outcomes")
    args = parser.parse_args(argv)

    registry = ModelRegistry()
    registry.publish(_load_or_demo_model(args), tag="bench")
    policy = BatchPolicy(max_batch=args.max_batch,
                         max_delay_s=args.window_ms / 1000.0,
                         max_queue=args.queue)
    points, _ = gaussian_mixture(n_points=512, n_dims=registry.current()
                                 .info()["n_features"], n_clusters=4,
                                 seed=args.seed + 1)
    with serve_in_thread(registry, host=args.host, port=args.port,
                         policy=policy,
                         admission=_admission_from_args(args),
                         drain_s=args.drain_s) as handle:
        host, port = handle.address
        if args.mode == "closed":
            report = run_closed_loop(host, port, points,
                                     n_requests=args.requests,
                                     n_clients=args.clients,
                                     deadline_ms=args.deadline_ms,
                                     request_timeout_s=args.request_timeout)
        else:
            report = run_open_loop(host, port, points, rate=args.rate,
                                   duration_s=args.duration,
                                   n_connections=args.clients,
                                   deadline_ms=args.deadline_ms,
                                   request_timeout_s=args.request_timeout)
        stats = handle.server.stats.snapshot()
        cache = handle.server.cache.snapshot()
    print(report.render())
    print(f"  server: mean batch {stats['mean_batch_size']} "
          f"(max {stats['max_batch_seen']}), "
          f"batch hist {stats['batch_size_hist']}")
    if stats["shed_total"] or stats["deadline_expired_total"]:
        print(f"  server: shed {stats['shed_by_reason']}  "
              f"deadline-expired {stats['deadline_expired_total']}  "
              f"queue wait mean {stats['queue_wait']['mean_ms']}ms")
    print(f"  cache: hit rate {cache['hit_rate']:.2%} "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    # Explicit sheds are intended degradation, not benchmark failure.
    return 0 if report.requests_failed == report.shed_total else 1


def _parse_quota(spec: str):
    """``rate`` or ``rate:burst`` → TenantQuotaPolicy."""
    from repro.fleet.quotas import TenantQuotaPolicy

    rate, _, burst = spec.partition(":")
    return TenantQuotaPolicy(
        rate=float(rate), burst=float(burst) if burst else 10.0
    )


def _run_fleet(argv: List[str]) -> int:
    import tempfile
    import time

    from repro.core.model import KeyBin2Model
    from repro.fleet.quotas import TenantQuotas
    from repro.fleet.replica import ReplicaSupervisor
    from repro.fleet.router import router_in_thread

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Serve a model from N replica subprocesses behind a "
                    "capacity-aware router (same TCP/JSON wire protocol).",
    )
    _serve_common_flags(parser)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--allow-admin", action="store_true",
                        help="serve reload (staged rollout), rollback and "
                             "shutdown even on a non-loopback --host")
    parser.add_argument("--quota", action="append", default=[],
                        metavar="TENANT=RATE[:BURST]",
                        help="per-tenant token-bucket quota (repeatable)")
    parser.add_argument("--quota-default", default=None,
                        metavar="RATE[:BURST]",
                        help="quota for tenants without an explicit --quota "
                             "(and for anonymous traffic)")
    parser.add_argument("--monitor-every", type=float, default=2.0,
                        help="seconds between supervisor liveness sweeps "
                             "(dead replicas are restarted and re-routed)")
    parser.add_argument("--journal-dir", default=None, metavar="DIR",
                        help="directory for the crash-safe rollout journal; "
                             "rollouts are write-ahead journaled, restarted "
                             "replicas reconcile to the journal's artifact, "
                             "and startup replays any interrupted rollout")
    parser.add_argument("--run-for", type=float, default=None, metavar="SECS",
                        help="exit (code 0) after SECS once the fleet serves "
                             "a single fingerprint — CI smoke mode")
    parser.add_argument("--chaos-kill", type=float, default=None,
                        metavar="SECS",
                        help="SIGKILL one replica (round-robin) every SECS "
                             "to exercise restart reconciliation")
    args = parser.parse_args(argv)
    if args.port == 8765:
        args.port = 8900  # don't default onto the single-server port
    if args.trace_out is not None:
        # The router process traces its route/forward hops; each replica
        # subprocess gets the same --trace-out (with {pid} so N processes
        # write N files obs-trace reads back together).
        from repro.obs import configure_tracer

        trace_path = args.trace_out
        if "{pid}" not in trace_path:
            trace_path += ".{pid}"
        configure_tracer(trace_path, sample_rate=args.trace_sample)

    # Process replicas load from disk; --demo fits once and saves a temp
    # artifact every replica shares. The router itself holds no model.
    tmp = None
    model_path = args.model
    if model_path is None:
        tmp = tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", prefix="fleet-demo-", delete=False)
        tmp.close()
        _load_or_demo_model(args).save(tmp.name)
        model_path = tmp.name

    quotas = TenantQuotas(
        quotas={name: _parse_quota(spec) for name, _, spec in
                (q.partition("=") for q in args.quota)},
        default=None if args.quota_default is None
        else _parse_quota(args.quota_default),
    )
    extra = []
    if args.admit_rate is not None:
        extra += ["--admit-rate", str(args.admit_rate),
                  "--admit-burst", str(args.admit_burst)]
    if args.max_in_flight is not None:
        extra += ["--max-in-flight", str(args.max_in_flight)]
    if args.default_deadline_ms is not None:
        extra += ["--default-deadline-ms", str(args.default_deadline_ms)]
    extra += ["--max-batch", str(args.max_batch),
              "--window-ms", str(args.window_ms),
              "--queue", str(args.queue), "--drain-s", str(args.drain_s)]
    if args.trace_out is not None:
        extra += ["--trace-out", trace_path,
                  "--trace-sample", str(args.trace_sample)]

    journal = None
    if args.journal_dir is not None:
        from repro.fleet.journal import RolloutJournal

        journal = RolloutJournal(args.journal_dir)
        if journal.current_artifact() is None:
            # First boot: the starting model is the fleet's baseline.
            journal.set_artifact(
                model_path, KeyBin2Model.load(model_path).fingerprint())

    sup = ReplicaSupervisor(model_path, n_replicas=args.replicas,
                            mode="process", extra_args=extra,
                            journal=journal)
    try:
        endpoints = sup.start()
        if journal is not None:
            from repro.fleet.journal import recover_fleet

            summary = recover_fleet(endpoints, journal)
            if summary["action"] != "noop":
                print(f"journal recovery: {summary['action']} -> "
                      f"{summary['target_fingerprint']} "
                      f"(reloaded: {', '.join(summary['reloaded']) or 'none'})",
                      flush=True)
        handle = router_in_thread(
            endpoints, host=args.host, port=args.port,
            quotas=quotas,
            allow_admin=True if args.allow_admin else None,
            seed=args.seed, journal=journal,
        )
        with handle:
            print(f"fleet router over {len(endpoints)} replicas "
                  f"({', '.join(f'{r}={h}:{p}' for r, h, p in endpoints)}) "
                  f"on {handle.address[0]}:{handle.address[1]}")
            print("ops: predict, model-info, stats, metrics, healthz, "
                  "fleet-status"
                  + (", reload (staged rollout), rollback, shutdown"
                     if handle.server.allow_admin else ""))
            exit_code = 0
            try:
                started = time.monotonic()
                last_sweep = started
                last_kill = started
                kill_ids = sorted(r for r, _, _ in endpoints)
                kill_idx = 0
                while handle.thread.is_alive():
                    time.sleep(0.1)
                    now = time.monotonic()
                    if args.run_for is not None and now - started >= args.run_for:
                        break
                    if (args.chaos_kill is not None
                            and now - last_kill >= args.chaos_kill):
                        last_kill = now
                        victim = kill_ids[kill_idx % len(kill_ids)]
                        kill_idx += 1
                        if sup.is_alive(victim):
                            sup.kill(victim)
                            print(f"chaos: killed replica {victim}",
                                  flush=True)
                    if now - last_sweep < args.monitor_every:
                        continue
                    last_sweep = now
                    for rid in sup.check_and_restart():
                        rhost, rport = next(
                            (h, p) for r, h, p in sup.endpoints() if r == rid
                        )
                        handle.call(handle.server.set_endpoint(rid, rhost, rport))
                        print(f"restarted dead replica {rid} "
                              f"-> {rhost}:{rport}", flush=True)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                pass
            if args.run_for is not None:
                # Smoke-mode exit gate: after the chaos window the fleet
                # must serve exactly one fingerprint on every replica
                # that is up (a final sweep revives any recent victim).
                for rid in sup.check_and_restart():
                    rhost, rport = next(
                        (h, p) for r, h, p in sup.endpoints() if r == rid
                    )
                    handle.call(handle.server.set_endpoint(rid, rhost, rport))
                from repro.fleet.journal import _probe_fingerprints

                final = _probe_fingerprints(sup.endpoints(), timeout=5.0)
                served = {fp for fp in final.values() if fp is not None}
                print(f"final fingerprints: {final}", flush=True)
                if not served or len(served) > 1 or None in final.values():
                    exit_code = 1
    finally:
        sup.stop()
        if tmp is not None:
            import os

            os.unlink(tmp.name)
    return exit_code


def _run_fleet_recover(argv: List[str]) -> int:
    import json

    from repro.fleet.journal import RolloutJournal, recover_fleet

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-recover",
        description="Replay a rollout journal against a running fleet and "
                    "drive every replica to a single model fingerprint "
                    "(finish a committed rollout, roll back an uncommitted "
                    "one, reconcile strays).",
    )
    parser.add_argument("--journal-dir", required=True, metavar="DIR",
                        help="the fleet's --journal-dir")
    parser.add_argument("--endpoints", required=True,
                        metavar="ID=HOST:PORT[,...]",
                        help="replica endpoints, e.g. "
                             "r0=127.0.0.1:9001,r1=127.0.0.1:9002")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-replica probe/reload timeout (seconds)")
    args = parser.parse_args(argv)

    endpoints = []
    for part in filter(None, (p.strip() for p in args.endpoints.split(","))):
        rid, eq, addr = part.partition("=")
        host, colon, port = addr.rpartition(":")
        if not (eq and colon and rid and host and port.isdigit()):
            parser.error(f"bad endpoint {part!r} (want ID=HOST:PORT)")
        endpoints.append((rid, host, int(port)))

    journal = RolloutJournal(args.journal_dir)
    summary = recover_fleet(endpoints, journal, timeout=args.timeout)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["converged"] else 1


def _run_fleet_bench(argv: List[str]) -> int:
    from repro.fleet.bench import DEFAULT_OUT_PATH, run_fleet_bench

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-bench",
        description="Measure fleet goodput scaling (1->2->4 replicas) and a "
                    "staged zero-downtime reload under load.",
    )
    parser.add_argument("--model", default=None,
                        help="model to serve (default: fit a demo model)")
    parser.add_argument("--out", default=DEFAULT_OUT_PATH,
                        help="results JSON path ('' = don't write)")
    parser.add_argument("--sizes", default="1,2,4",
                        help="comma-separated fleet sizes for the scaling runs")
    parser.add_argument("--admit-rate", type=float, default=250.0,
                        help="per-replica admission budget (predicts/s); the "
                             "explicit capacity each replica contributes")
    parser.add_argument("--demand-factor", type=float, default=1.35,
                        help="open-loop demand as a multiple of aggregate "
                             "fleet capacity")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of load per scaling point")
    parser.add_argument("--reload-replicas", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless every acceptance threshold "
                             "passes (2-replica scaling >= 1.6x, 4-replica "
                             ">= 3x, zero hard failures during reload)")
    args = parser.parse_args(argv)

    results = run_fleet_bench(
        model_path=args.model,
        out_path=args.out or None,
        fleet_sizes=tuple(int(s) for s in args.sizes.split(",") if s),
        admit_rate=args.admit_rate,
        demand_factor=args.demand_factor,
        duration_s=args.duration,
        reload_replicas=args.reload_replicas,
        seed=args.seed,
    )
    if args.check and not results["passed"]:
        return 1
    return 0


def _run_obs_report(argv: List[str]) -> int:
    from repro.obs import run_obs_report

    parser = argparse.ArgumentParser(
        prog="python -m repro obs-report",
        description="Run an instrumented in-situ workload; report per-phase "
                    "time and consolidation comm volume from telemetry.",
    )
    parser.add_argument("--ranks", type=int, default=3,
                        help="SPMD ranks (one synthetic trajectory each)")
    parser.add_argument("--frames", type=int, default=160,
                        help="frames per rank")
    parser.add_argument("--chunk", type=int, default=40,
                        help="frames per in-situ chunk")
    parser.add_argument("--every", type=int, default=2,
                        help="chunks between consolidations")
    parser.add_argument("--reduce", choices=["linear", "ring"],
                        default="linear", help="histogram allreduce topology")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="emit the raw registry snapshot as JSON")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault plan for chaos runs, e.g. "
                             "'kill:1@1' or 'kill:2@1,slow:0:0.002' "
                             "(kill:R@K, drop:S>D@N, delay:S>D@N:SECS, "
                             "slow:R:SECS); enables recovery and reports the "
                             "survivors' recovery counters")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write per-rank checkpoints after every "
                             "consolidation; an existing directory resumes "
                             "the run from its last complete round")
    parser.add_argument("--suspicion", type=float, default=None,
                        metavar="SECS",
                        help="soft suspicion deadline below the hard receive "
                             "timeout: stalled receives ping the peer and "
                             "wait it out if alive (slow != dead)")
    args = parser.parse_args(argv)
    print(run_obs_report(
        n_ranks=args.ranks, n_frames=args.frames, chunk_size=args.chunk,
        consolidate_every=args.every, seed=args.seed,
        reduce_algo=args.reduce, as_json=args.json, faults=args.faults,
        checkpoint_dir=args.checkpoint_dir, suspicion=args.suspicion,
    ))
    return 0


def _run_obs_trace(argv: List[str]) -> int:
    import json as _json

    from repro.obs import build_traces, load_spans, render_trace, trace_summary
    from repro.obs.report import trace_table

    parser = argparse.ArgumentParser(
        prog="python -m repro obs-trace",
        description="Reconstruct distributed request traces from span JSONL "
                    "files (written via --trace-out) and render each tree "
                    "with per-hop latency and a paper-§3 critical path.",
    )
    parser.add_argument("files", nargs="+",
                        help="span JSONL file(s) or globs, e.g. "
                             "'traces/*.jsonl'")
    parser.add_argument("--trace", default=None, metavar="ID",
                        help="render only this 16-hex trace id")
    parser.add_argument("--limit", type=int, default=10,
                        help="max traces to render (newest first)")
    parser.add_argument("--json", action="store_true",
                        help="emit trace summaries as JSON instead of trees")
    args = parser.parse_args(argv)

    records = load_spans(args.files)
    trees = build_traces(records)
    if args.trace is not None:
        trees = {k: v for k, v in trees.items() if k == args.trace}
    if not trees:
        print("no trace spans found", file=sys.stderr)
        return 1
    ordered = sorted(
        trees.values(),
        key=lambda t: max(
            (s.get("start", 0.0) for s in t.spans.values()), default=0.0
        ),
        reverse=True,
    )[:max(1, args.limit)]
    if args.json:
        print(_json.dumps([trace_summary(t) for t in ordered], sort_keys=True))
        return 0
    shown = 0
    for tree in ordered:
        if shown:
            print()
        print(render_trace(tree))
        print(trace_table(trace_summary(tree)))
        shown += 1
    print(f"\n{len(trees)} trace(s) in {len(records)} spans"
          + (f"; showing {shown}" if shown < len(trees) else ""))
    return 0


def _parse_collect_targets(specs: List[str]):
    """``id=host:port`` (or bare ``host:port``) specs → collector targets."""
    targets = []
    for spec in specs:
        name, eq, addr = spec.rpartition("=")
        host, _, port = addr.rpartition(":")
        if not host or not port:
            raise SystemExit(f"bad --target {spec!r} (want [id=]host:port)")
        targets.append((name if eq else addr, host, int(port)))
    return targets


def _collector_from_args(args):
    from repro.obs import MetricsCollector

    snapshot_files = []
    for spec in getattr(args, "snapshots", None) or []:
        name, eq, path = spec.partition("=")
        snapshot_files.append((name if eq else path, path if eq else name))
    return MetricsCollector(
        targets=_parse_collect_targets(args.target),
        snapshot_files=snapshot_files,
        interval_s=args.interval,
    )


def _obs_demo_fleet(args):
    """In-process replica + traffic for --demo dashboard/collector runs."""
    from repro.serve.batcher import BatchPolicy
    from repro.serve.client import ServeClient
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import serve_in_thread

    registry = ModelRegistry()
    args.model = None
    args.demo = True
    model = _load_or_demo_model(args)
    registry.publish(model, tag="obs-demo")
    handle = serve_in_thread(
        registry, policy=BatchPolicy(max_batch=64, max_delay_s=0.002)
    )
    host, port = handle.address
    with ServeClient(host, port) as client:
        rng_row = [0.0] * model.projection.shape[0]
        for _ in range(40):
            client.predict(rng_row)
    return handle, [("demo-replica", host, port)]


def _run_obs_dashboard(argv: List[str]) -> int:
    from repro.obs import MetricsCollector, run_dashboard

    parser = argparse.ArgumentParser(
        prog="python -m repro obs-dashboard",
        description="Live terminal dashboard over a fleet: per-replica QPS, "
                    "queue depth, p99, cache hits, breaker state, and firing "
                    "SLO burn-rate alerts.",
    )
    parser.add_argument("--target", action="append", default=[],
                        metavar="[ID=]HOST:PORT",
                        help="replica/router metrics endpoint (repeatable)")
    parser.add_argument("--snapshots", action="append", default=[],
                        metavar="[ID=]PATH",
                        help="SnapshotLogger JSONL file to fold in "
                             "(repeatable; SPMD ranks)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="collector pull + refresh cadence (seconds)")
    parser.add_argument("--window", type=float, default=10.0,
                        help="rate/quantile window (seconds)")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit (CI check)")
    parser.add_argument("--demo", action="store_true",
                        help="spin up an in-process demo replica with traffic "
                             "(no fleet required)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    demo_handle = None
    if args.demo:
        demo_handle, targets = _obs_demo_fleet(args)
        args.target = [f"{i}={h}:{p}" for i, h, p in targets]
    elif not args.target and not args.snapshots:
        raise SystemExit("need --target, --snapshots, or --demo")
    collector = _collector_from_args(args)
    try:
        collector.poll_once()
        if args.once:
            run_dashboard(collector, once=True, window_s=args.window)
            return 0
        with collector:
            run_dashboard(collector, interval_s=args.interval,
                          window_s=args.window)
    finally:
        if demo_handle is not None:
            demo_handle.stop()
    return 0


def _run_obs_collect(argv: List[str]) -> int:
    import time as _time

    from repro.obs import collector_in_thread

    parser = argparse.ArgumentParser(
        prog="python -m repro obs-collect",
        description="Run the fleet metrics collector: pull every target, "
                    "evaluate SLO burn-rate alerts, and serve one merged "
                    "metrics/alerts endpoint (newline-JSON protocol).",
    )
    parser.add_argument("--target", action="append", default=[],
                        metavar="[ID=]HOST:PORT",
                        help="replica/router metrics endpoint (repeatable)")
    parser.add_argument("--snapshots", action="append", default=[],
                        metavar="[ID=]PATH",
                        help="SnapshotLogger JSONL file to fold in")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9800,
                        help="merged endpoint port (0 = ephemeral)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="pull cadence (seconds)")
    args = parser.parse_args(argv)
    if not args.target and not args.snapshots:
        raise SystemExit("need at least one --target or --snapshots")

    collector = _collector_from_args(args)
    handle = collector_in_thread(collector, host=args.host, port=args.port)
    with handle:
        host, port = handle.address
        print(f"collector pulling {len(collector.targets)} target(s) + "
              f"{len(collector.snapshot_files)} snapshot file(s) every "
              f"{args.interval}s; merged endpoint on {host}:{port}")
        print("ops: metrics, alerts, healthz")
        try:
            while True:
                _time.sleep(1.0)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "serve-bench":
        return _run_serve_bench(argv[1:])
    if argv and argv[0] == "fleet":
        return _run_fleet(argv[1:])
    if argv and argv[0] == "fleet-bench":
        return _run_fleet_bench(argv[1:])
    if argv and argv[0] == "fleet-recover":
        return _run_fleet_recover(argv[1:])
    if argv and argv[0] == "obs-report":
        return _run_obs_report(argv[1:])
    if argv and argv[0] == "obs-trace":
        return _run_obs_trace(argv[1:])
    if argv and argv[0] == "obs-dashboard":
        return _run_obs_dashboard(argv[1:])
    if argv and argv[0] == "obs-collect":
        return _run_obs_collect(argv[1:])
    args = _build_parser().parse_args(argv)
    names = (
        ["table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4",
         "ablation-partitioning", "ablation-bootstrap", "ablation-nrp",
         "ablation-smoother", "comm-volume", "scaling"]
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        print(_run_one(name, args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

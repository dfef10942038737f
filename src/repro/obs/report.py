"""``python -m repro obs-report`` — phase-time and comm-volume breakdown.

Runs a small instrumented distributed in-situ workload (the same shape as
``tests/insitu/test_consolidation.py``) against a fresh registry and
renders the two breakdowns the paper's cost model is stated in:

* **per-phase time** — from the ``phase_seconds_total``/``phase_calls_total``
  span series, the runtime decomposition of §3's linear-time pipeline
  (project → bin → histogram → keys → consolidate → refresh);
* **communication volume** — from the ``insitu_consolidation_bytes_total``
  series, checked against the paper's histogram-only bound: each rank
  ships one flat delta buffer of ``K · N_rp · 2^deepest`` int64 bins per
  round (the O(2·K·N_rp·B) term), plus the sparse key-cell delta.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.exposition import ensure_core_series, render_json
from repro.obs.registry import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
)

__all__ = [
    "run_obs_report",
    "phase_table",
    "comm_table",
    "recovery_table",
    "overload_table",
    "fleet_table",
    "stream_table",
    "trace_table",
]

#: Edge-bin mass fraction above which the stream table warns: this much
#: of the deepest-depth histogram sitting in boundary bins means the
#: fixed range is clipping real structure (enable adaptive binning or
#: widen feature_range).
EDGE_BIN_WARN_FRACTION = 0.05


def _family_values(reg: MetricsRegistry, name: str) -> List[Dict[str, Any]]:
    fam = reg.get(name)
    return fam.snapshot()["samples"] if fam is not None else []


def phase_table(reg: MetricsRegistry) -> str:
    """Render the per-phase span breakdown, slowest first."""
    seconds = {
        s["labels"]["phase"]: s["value"]
        for s in _family_values(reg, "phase_seconds_total")
    }
    calls = {
        s["labels"]["phase"]: s["value"]
        for s in _family_values(reg, "phase_calls_total")
    }
    if not seconds:
        return "  (no phase spans recorded)"
    # A leaf is a path that never appears as a proper prefix of another;
    # leaves partition the measured time, so only they get a % share.
    paths = sorted(seconds)
    leaves = {
        p for p in paths
        if not any(q.startswith(p + "/") for q in paths if q != p)
    }
    leaf_total = sum(seconds[p] for p in leaves) or 1.0
    rows = sorted(seconds.items(), key=lambda kv: -kv[1])
    width = max(len(p) for p, _ in rows)
    lines = [
        f"  {'phase':<{width}}  {'calls':>7}  {'total s':>9}  "
        f"{'mean ms':>9}  {'share':>6}"
    ]
    for path, secs in rows:
        n = int(calls.get(path, 0))
        mean_ms = (secs / n * 1e3) if n else 0.0
        share = f"{secs / leaf_total * 100:5.1f}%" if path in leaves else "     -"
        lines.append(
            f"  {path:<{width}}  {n:>7}  {secs:>9.4f}  {mean_ms:>9.3f}  {share}"
        )
    return "\n".join(lines)


def comm_table(reg: MetricsRegistry, model_bytes_per_round: int) -> str:
    """Render per-rank consolidation traffic vs. the histogram cost model."""
    rounds = {
        s["labels"]["rank"]: int(s["value"])
        for s in _family_values(reg, "insitu_consolidation_rounds_total")
    }
    by_rank_kind: Dict[Tuple[str, str], float] = {}
    for s in _family_values(reg, "insitu_consolidation_bytes_total"):
        key = (s["labels"]["rank"], s["labels"]["kind"])
        by_rank_kind[key] = by_rank_kind.get(key, 0.0) + s["value"]
    if not rounds:
        return "  (no consolidation rounds recorded)"
    lines = [
        f"  cost model: histogram delta = {model_bytes_per_round:,} "
        "bytes/rank/round (K · N_rp·2^deepest int64 bins)",
        f"  {'rank':>4}  {'rounds':>6}  {'hist B':>12}  {'keys B':>12}  "
        f"{'seen B':>7}  {'hist B/round':>12}  {'model ×':>8}",
    ]
    for rank in sorted(rounds, key=int):
        n = rounds[rank]
        hist = int(by_rank_kind.get((rank, "hist"), 0))
        keys = int(by_rank_kind.get((rank, "keys"), 0))
        seen = int(by_rank_kind.get((rank, "seen"), 0))
        per_round = hist / n if n else 0.0
        ratio = per_round / model_bytes_per_round if model_bytes_per_round else 0.0
        lines.append(
            f"  {rank:>4}  {n:>6}  {hist:>12,}  {keys:>12,}  {seen:>7,}  "
            f"{per_round:>12,.0f}  {ratio:>8.2f}"
        )
    folded = sum(
        int(s["value"])
        for s in _family_values(reg, "insitu_consolidation_cells_folded_total")
    )
    evicted = sum(
        int(s["value"])
        for s in _family_values(reg, "insitu_consolidation_evictions_total")
    )
    lines.append(f"  peer key-cells folded: {folded:,}   evictions: {evicted:,}")
    return "\n".join(lines)


def recovery_table(reg: MetricsRegistry) -> str:
    """Render per-rank fault-recovery counters (empty run → one-liner)."""
    recoveries = {
        s["labels"]["rank"]: int(s["value"])
        for s in _family_values(reg, "insitu_recoveries_total")
        if s["value"]
    }
    lost = {
        s["labels"]["rank"]: int(s["value"])
        for s in _family_values(reg, "insitu_frames_lost_total")
    }
    if not recoveries:
        return "  (no rank-failure recoveries)"
    lines = [f"  {'rank':>4}  {'recoveries':>10}  {'frames lost':>11}"]
    for rank in sorted(recoveries, key=int):
        lines.append(
            f"  {rank:>4}  {recoveries[rank]:>10}  {lost.get(rank, 0):>11}"
        )
    return "\n".join(lines)


def overload_table(reg: MetricsRegistry) -> str:
    """Render degradation counters: sheds, deadlines, stragglers, circuit.

    Covers both prongs of the overload layer — serve-side shedding
    (``serve_shed_total`` by reason, ``serve_deadline_expired_total``,
    ``serve_queue_wait_seconds``, ``serve_circuit_open_total``) and
    consolidation-side straggler waits (``insitu_straggler_*``). Series a
    run never touched are simply omitted.
    """
    lines: List[str] = []
    sheds = {
        s["labels"]["reason"]: int(s["value"])
        for s in _family_values(reg, "serve_shed_total")
        if s["value"]
    }
    if sheds:
        total = sum(sheds.values())
        detail = "  ".join(f"{k}={v}" for k, v in sorted(sheds.items()))
        lines.append(f"  requests shed: {total:,}  ({detail})")
    expired = {
        s["labels"]["where"]: int(s["value"])
        for s in _family_values(reg, "serve_deadline_expired_total")
        if s["value"]
    }
    if expired:
        detail = "  ".join(f"{k}={v}" for k, v in sorted(expired.items()))
        lines.append(f"  deadlines expired: {sum(expired.values()):,}  ({detail})")
    for s in _family_values(reg, "serve_queue_wait_seconds"):
        count = int(s.get("count", 0))
        if count:
            mean_ms = s["sum"] / count * 1e3
            lines.append(
                f"  queue wait: {count:,} rows, mean {mean_ms:.3f} ms"
            )
    trips = sum(
        int(s["value"])
        for s in _family_values(reg, "serve_circuit_open_total")
    )
    if trips:
        lines.append(f"  circuit-breaker trips: {trips}")
    waits = sum(
        int(s["value"])
        for s in _family_values(reg, "insitu_straggler_waits_total")
    )
    wait_s = sum(
        float(s["value"])
        for s in _family_values(reg, "insitu_straggler_wait_seconds")
    )
    if waits:
        lines.append(
            f"  straggler suspicion episodes: {waits}  "
            f"(waited {wait_s:.3f} s beyond soft deadlines; slow ≠ dead)"
        )
    if not lines:
        return "  (no overload or straggler events)"
    return "\n".join(lines)


def fleet_table(reg: MetricsRegistry) -> str:
    """Render fleet-router counters: routing, health, rollouts.

    Pass a :class:`~repro.fleet.router.FleetRouter`'s ``registry``; the
    process-default registry only carries these series if a router ran in
    this process.
    """
    routed: Dict[str, Dict[str, int]] = {}
    for s in _family_values(reg, "fleet_routed_total"):
        if not s["value"]:
            continue
        labels = s["labels"]
        routed.setdefault(labels["replica"], {})[labels["outcome"]] = int(
            s["value"]
        )
    if not routed:
        return "  (no fleet traffic routed)"
    outcomes = sorted({o for per in routed.values() for o in per})
    width = max(len("replica"), max(len(r) for r in routed))
    header = f"  {'replica':<{width}}  " + "  ".join(
        f"{o:>{max(len(o), 6)}}" for o in outcomes
    )
    lines = [header]
    for replica in sorted(routed):
        per = routed[replica]
        lines.append(
            f"  {replica:<{width}}  " + "  ".join(
                f"{per.get(o, 0):>{max(len(o), 6)}}" for o in outcomes
            )
        )
    ejections = sum(
        int(s["value"])
        for s in _family_values(reg, "fleet_ejections_total")
    )
    readmissions = sum(
        int(s["value"])
        for s in _family_values(reg, "fleet_readmissions_total")
    )
    if ejections or readmissions:
        lines.append(
            f"  replica ejections: {ejections}  re-admissions: {readmissions}"
        )
    tenant_sheds = {
        s["labels"]["tenant"]: int(s["value"])
        for s in _family_values(reg, "fleet_tenant_shed_total")
        if s["value"]
    }
    if tenant_sheds:
        detail = "  ".join(f"{k}={v}" for k, v in sorted(tenant_sheds.items()))
        lines.append(
            f"  tenant-quota sheds: {sum(tenant_sheds.values()):,}  ({detail})"
        )
    rollouts = {
        s["labels"]["outcome"]: int(s["value"])
        for s in _family_values(reg, "fleet_rollouts_total")
        if s["value"]
    }
    if rollouts:
        detail = "  ".join(f"{k}={v}" for k, v in sorted(rollouts.items()))
        lines.append(f"  rollouts: {detail}")
    # Self-healing plane: supervisor restarts, quarantines, journal
    # recoveries, and the retry budget's shed count. Restart/recovery
    # series live on the process-default registry (supervisor/journal are
    # not router-scoped); callers pass default_registry() to see them.
    restarts: Dict[str, int] = {}
    for s in _family_values(reg, "fleet_replica_restarts_total"):
        if s["value"]:
            outcome = s["labels"]["outcome"]
            restarts[outcome] = restarts.get(outcome, 0) + int(s["value"])
    if restarts:
        detail = "  ".join(f"{k}={v}" for k, v in sorted(restarts.items()))
        lines.append(f"  replica restarts: {detail}")
    quarantined = sorted(
        s["labels"]["replica"]
        for s in _family_values(reg, "fleet_replica_quarantined")
        if s["value"]
    )
    if quarantined:
        lines.append(f"  quarantined (crash-looping): {', '.join(quarantined)}")
    recoveries = {
        s["labels"]["action"]: int(s["value"])
        for s in _family_values(reg, "fleet_recoveries_total")
        if s["value"]
    }
    if recoveries:
        detail = "  ".join(f"{k}={v}" for k, v in sorted(recoveries.items()))
        lines.append(f"  journal recoveries: {detail}")
    budget_shed = sum(
        int(s["value"])
        for s in _family_values(reg, "fleet_retry_budget_exhausted_total")
    )
    if budget_shed:
        lines.append(f"  retry-budget sheds: {budget_shed:,}")
    return "\n".join(lines)


def stream_table(reg: MetricsRegistry) -> str:
    """Render open-world stream health: out-of-range rows, grid rebins,
    drift scores, responses, edge-bin saturation, and the share of
    points each projection's capped key table has evicted
    (``stream_key_evicted_fraction``).

    Emits an explicit WARNING line when any projection's edge-bin mass
    fraction (``stream_edge_bin_fraction``) exceeds
    :data:`EDGE_BIN_WARN_FRACTION` — the
    signature of a fixed range clipping real structure into boundary
    bins. Series a run never touched are omitted; a run with none of
    them renders the usual one-liner.
    """
    lines: List[str] = []
    oor: Dict[Tuple[str, str], int] = {}
    for s in _family_values(reg, "stream_out_of_range_total"):
        if s["value"]:
            key = (s["labels"]["projection"], s["labels"]["side"])
            oor[key] = oor.get(key, 0) + int(s["value"])
    if oor:
        total = sum(oor.values())
        detail = "  ".join(
            f"proj{p}/{side}={v}" for (p, side), v in sorted(oor.items())
        )
        lines.append(f"  out-of-range rows: {total:,}  ({detail})")
    rebins = {
        s["labels"]["projection"]: int(s["value"])
        for s in _family_values(reg, "stream_rebin_total")
        if s["value"]
    }
    if rebins:
        detail = "  ".join(f"proj{p}={v}" for p, v in sorted(rebins.items()))
        lines.append(
            f"  adaptive grid rebins: {sum(rebins.values())}  ({detail})"
        )
    scores = {
        s["labels"]["projection"]: float(s["value"])
        for s in _family_values(reg, "stream_drift_score")
    }
    if scores:
        detail = "  ".join(f"proj{p}={v:.3f}" for p, v in sorted(scores.items()))
        lines.append(f"  drift scores (latest window TV): {detail}")
    responses = sum(
        int(s["value"])
        for s in _family_values(reg, "stream_drift_responses_total")
    )
    if responses:
        lines.append(f"  drift-triggered republishes: {responses}")
    edges = {
        s["labels"]["projection"]: float(s["value"])
        for s in _family_values(reg, "stream_edge_bin_fraction")
    }
    if edges:
        detail = "  ".join(f"proj{p}={v:.4f}" for p, v in sorted(edges.items()))
        lines.append(f"  edge-bin mass fraction: {detail}")
        hot = {p: v for p, v in edges.items() if v > EDGE_BIN_WARN_FRACTION}
        if hot:
            worst = max(hot.values())
            lines.append(
                f"  WARNING: edge-bin mass {worst:.1%} exceeds "
                f"{EDGE_BIN_WARN_FRACTION:.0%} on projection(s) "
                f"{', '.join(sorted(hot))} — the fixed range is clipping "
                "real structure; enable adaptive binning or widen "
                "feature_range"
            )
    evicted = {
        s["labels"]["projection"]: float(s["value"])
        for s in _family_values(reg, "stream_key_evicted_fraction")
    }
    if evicted:
        detail = "  ".join(f"proj{p}={v:.4f}" for p, v in sorted(evicted.items()))
        lines.append(f"  key-table evicted point fraction: {detail}")
    if not lines:
        return "  (no stream range/drift events)"
    return "\n".join(lines)


def trace_table(summary: Dict[str, Any]) -> str:
    """Render one distributed trace's critical-path breakdown.

    Takes the dict from :func:`repro.obs.reqtrace.trace_summary`: per-hop
    self time (exclusive of children) plus the same time folded to the
    paper-§3 phase each hop implements. On a connected tree the self
    times sum to the root duration, so ``share`` columns add to 100%.
    """
    total = summary.get("total_s") or 0.0
    accounted = summary.get("accounted_s") or 0.0
    denom = accounted or 1.0
    lines = [
        f"  spans={summary.get('spans', 0)}  "
        f"connected={'yes' if summary.get('connected') else 'NO'}  "
        f"total={total * 1e3:.3f} ms  accounted={accounted * 1e3:.3f} ms",
    ]
    hops = summary.get("hops", {})
    if hops:
        width = max(len(h) for h in hops)
        lines.append(
            f"  {'hop':<{width}}  {'count':>5}  {'total ms':>9}  "
            f"{'self ms':>9}  {'share':>6}  status"
        )
        for name, hop in sorted(hops.items(), key=lambda kv: -kv[1]["self_s"]):
            status = hop.get("status", "ok")
            lines.append(
                f"  {name:<{width}}  {hop['count']:>5}  "
                f"{hop['total_s'] * 1e3:>9.3f}  {hop['self_s'] * 1e3:>9.3f}  "
                f"{hop['self_s'] / denom * 100:>5.1f}%  "
                f"{'' if status == 'ok' else '!' + status}"
            )
    phases = summary.get("phases", {})
    if phases:
        lines.append("  critical path by paper-§3 phase:")
        for phase, secs in sorted(phases.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"    {phase:<32}  {secs * 1e3:>9.3f} ms  "
                f"{secs / denom * 100:>5.1f}%"
            )
    return "\n".join(lines)


def run_obs_report(
    n_ranks: int = 3,
    n_frames: int = 160,
    chunk_size: int = 40,
    consolidate_every: int = 2,
    seed: int = 0,
    reduce_algo: str = "linear",
    as_json: bool = False,
    faults: str = None,
    checkpoint_dir: str = None,
    suspicion: float = None,
) -> str:
    """Run the instrumented demo workload and render the breakdowns.

    The run records into a fresh registry temporarily installed as the
    process default, so the report reflects only this workload (and never
    pollutes, or is polluted by, whatever else the process measured).

    ``faults`` takes a :meth:`~repro.comm.faults.FaultPlan.parse` spec
    (e.g. ``"kill:1@1"``); recovery is enabled automatically so the report
    shows the survivors' recovery counters. ``checkpoint_dir`` checkpoints
    every consolidation round (and resumes, if the directory already holds
    a complete round). ``suspicion`` (seconds) enables slow≠dead liveness
    probing below the hard receive timeout, so a ``slow:R:S`` fault plan
    shows up as straggler waits in the Overload section instead of a
    spurious recovery.
    """
    from repro.core.streaming import StreamingKeyBin2
    from repro.insitu.distributed import run_distributed_insitu
    from repro.proteins.encode import encode_frames
    from repro.proteins.trajectory import TrajectorySimulator

    n_residues = 24
    proto = TrajectorySimulator(n_residues, n_frames, 4, seed=50 + seed)
    targets = proto.simulate().phase_targets
    trajs = [
        TrajectorySimulator(
            n_residues, n_frames, 4, phase_targets=targets, seed=51 + seed + i
        ).simulate(name=f"traj{i}")
        for i in range(n_ranks)
    ]
    keybin = {"feature_range": (0.0, 6.0), "candidate_depths": (5, 6, 7, 8)}

    report_reg = ensure_core_series(MetricsRegistry())
    previous = set_default_registry(report_reg)
    try:
        results = run_distributed_insitu(
            trajs, chunk_size=chunk_size,
            consolidate_every=consolidate_every, seed=seed,
            reduce_algo=reduce_algo, faults=faults,
            recover=faults is not None, checkpoint_dir=checkpoint_dir,
            timeout=60.0 if faults is not None else 600.0,
            suspicion_timeout=suspicion,
            **keybin,
        )
    finally:
        set_default_registry(previous)
    survivors = [r for r in results if not isinstance(r, BaseException)]
    failed = [i for i, r in enumerate(results) if isinstance(r, BaseException)]
    if not survivors:
        raise RuntimeError("every rank failed; nothing to report")
    # Cost-model probe (instrumented into the restored registry, not the
    # report's): the flat histogram-delta buffer of an identically
    # configured model is the O(2·K·N_rp·B) wire term.
    probe = StreamingKeyBin2(seed=seed, **keybin)
    probe.partial_fit(encode_frames(trajs[0].angles)[:chunk_size])
    model_bytes = sum(st.hist.nbytes for st in probe._states)

    if as_json:
        return json.dumps(
            {
                "workload": {
                    "ranks": n_ranks, "frames_per_rank": n_frames,
                    "chunk_size": chunk_size,
                    "consolidate_every": consolidate_every,
                    "reduce_algo": reduce_algo,
                    "model_hist_bytes_per_round": model_bytes,
                    "faults": faults,
                    "failed_ranks": failed,
                },
                **render_json(report_reg),
            },
            sort_keys=True,
        )

    total_sent = sum(r.traffic["bytes_sent"] for r in survivors)
    clusters = survivors[0].n_clusters
    out = [
        "obs-report — instrumented distributed in-situ run",
        f"  ranks={n_ranks}  frames/rank={n_frames}  chunk={chunk_size}  "
        f"consolidate_every={consolidate_every}  reduce={reduce_algo}  "
        f"clusters={clusters}",
        "",
        "Per-phase time (phase_seconds_total / phase_calls_total):",
        phase_table(report_reg),
        "",
        "Consolidation comm volume (insitu_consolidation_bytes_total):",
        comm_table(report_reg, model_bytes),
        "",
        "Fault recovery (insitu_recoveries_total / insitu_frames_lost_total):",
        recovery_table(report_reg),
        "",
        "Overload / stragglers (serve_shed_total / insitu_straggler_*):",
        overload_table(report_reg),
        "",
        "Fleet routing (fleet_routed_total):",
        fleet_table(report_reg),
        "",
        "Stream range/drift (stream_out_of_range_total / stream_drift_score):",
        stream_table(report_reg),
        "",
        f"  communicator total bytes sent (all ranks, incl. control): "
        f"{total_sent:,}",
    ]
    if failed:
        out.insert(
            2,
            f"  injected faults: {faults!r}  ->  failed ranks {failed}, "
            f"{len(survivors)} survivors",
        )
    return "\n".join(out)

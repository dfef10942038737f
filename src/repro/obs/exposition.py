"""Render metrics registries as Prometheus text and JSON.

Two surfaces consume this module:

* the ``{"op": "metrics"}`` RPC on :class:`repro.serve.server.ModelServer`
  returns both forms in one response (Prometheus text for scrapers, JSON
  for humans and the smoke tests), and
* the periodic :class:`repro.obs.logger.SnapshotLogger` writes the JSON
  form one line per interval for long in-situ runs.

Multiple registries render into one payload (the server merges its
per-instance serve registry with the process-global default that holds
phase spans and comm counters); families are de-duplicated by name with
samples concatenated.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.registry import MetricsRegistry, default_registry

__all__ = ["ensure_core_series", "render_families", "render_json",
           "render_prometheus"]


def _as_registries(
    registries: Union[MetricsRegistry, Sequence[MetricsRegistry], None]
) -> List[MetricsRegistry]:
    if registries is None:
        return [default_registry()]
    if isinstance(registries, MetricsRegistry):
        return [registries]
    out: List[MetricsRegistry] = []
    for reg in registries:  # de-dupe by identity, preserve order
        if all(reg is not seen for seen in out):
            out.append(reg)
    return out


def _merged_families(registries: List[MetricsRegistry]) -> List[Dict[str, Any]]:
    merged: Dict[str, Dict[str, Any]] = {}
    for reg in registries:
        for fam in reg.collect():
            seen = merged.get(fam["name"])
            if seen is None:
                merged[fam["name"]] = fam
            else:
                seen["samples"].extend(fam["samples"])
    return list(merged.values())


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # Per the text-format spec, HELP lines escape backslash and newline
    # (but not quotes — those are only special inside label values).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Dict[str, str], extra: Dict[str, str] = {}) -> str:
    pairs = {**labels, **extra}
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs.items())
    return "{" + body + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_families(families: Iterable[Dict[str, Any]]) -> str:
    """Prometheus text exposition (0.0.4) from collected family dicts.

    The shared renderer behind :func:`render_prometheus` (local
    registries) and the fleet :class:`~repro.obs.collector.MetricsCollector`
    (families merged across scraped replicas, with an ``instance``
    label). Histogram samples emit cumulative ``le`` buckets ending in
    ``+Inf`` plus ``_sum``/``_count``; label values and HELP text are
    escaped per the spec.
    """
    lines: List[str] = []
    for fam in families:
        name = fam["name"]
        if fam["help"]:
            lines.append(f"# HELP {name} {_escape_help(str(fam['help']))}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for sample in fam["samples"]:
            labels = sample["labels"]
            if fam["type"] == "histogram":
                for bound, cum in sample["buckets"].items():
                    lines.append(
                        f"{name}_bucket{_format_labels(labels, {'le': bound})} {cum}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def render_prometheus(
    registries: Union[MetricsRegistry, Sequence[MetricsRegistry], None] = None,
) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    return render_families(_merged_families(_as_registries(registries)))


def render_json(
    registries: Union[MetricsRegistry, Sequence[MetricsRegistry], None] = None,
) -> Dict[str, Any]:
    """JSON form: ``{"families": {name: {type, help, samples}}}``."""
    families = {
        fam["name"]: {
            "type": fam["type"],
            "help": fam["help"],
            "samples": fam["samples"],
        }
        for fam in _merged_families(_as_registries(registries))
    }
    return {"families": families}


def ensure_core_series(registry: MetricsRegistry = None) -> MetricsRegistry:
    """Pre-register the canonical cross-layer families.

    Called before exposition so every scrape contains the core series —
    phase spans, in-situ comm volume, kernel launches — even in a process
    that has not exercised those paths yet (families render their HELP and
    TYPE lines at zero samples, which is how Prometheus expects series to
    be declared up front).
    """
    reg = registry if registry is not None else default_registry()
    reg.counter(
        "phase_calls_total",
        "Completed phase spans, by slash-joined phase path.",
        ("phase",),
    )
    reg.counter(
        "phase_seconds_total",
        "Total seconds spent inside phase spans, by phase path.",
        ("phase",),
    )
    reg.counter(
        "insitu_consolidation_rounds_total",
        "Distributed delta-merge rounds completed, per rank and reduce algo.",
        ("rank", "algo"),
    )
    reg.counter(
        "insitu_consolidation_bytes_total",
        "Delta bytes this rank put on the wire per consolidation payload "
        "kind (hist = flat histogram delta, keys = sparse key-cell delta, "
        "seen = points-seen scalar).",
        ("kind", "rank", "algo"),
    )
    reg.counter(
        "insitu_consolidation_cells_folded_total",
        "Peer key-cells folded into the merged table, per rank.",
        ("rank",),
    )
    reg.counter(
        "insitu_consolidation_evictions_total",
        "Key-cells evicted by capacity during delta merges, per rank.",
        ("rank",),
    )
    reg.counter(
        "insitu_recoveries_total",
        "Rank-failure recoveries this rank survived (agreement + "
        "communicator shrink + ledger rollback + re-merge).",
        ("rank",),
    )
    reg.counter(
        "insitu_frames_lost_total",
        "Frames of already-merged mass dropped with lost ranks, as "
        "observed by this surviving rank.",
        ("rank",),
    )
    reg.counter(
        "serve_client_retries_total",
        "Idempotent serve-client requests retried after a connection "
        "failure, by operation and failure kind.",
        ("op", "reason"),
    )
    reg.counter(
        "stream_points_total",
        "Points accumulated by StreamingKeyBin2.partial_fit.",
    )
    reg.counter(
        "stream_refreshes_total",
        "StreamingKeyBin2.refresh consolidations performed.",
    )
    return reg

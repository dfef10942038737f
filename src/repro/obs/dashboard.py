"""Live plain-refresh terminal dashboard over the fleet collector.

No curses, no dependencies: each refresh clears the screen with the
standard ANSI sequence and reprints one table — per-replica QPS, queue
depth, outstanding requests, p99 latency, cache hit rate, circuit
breaker state — plus whatever SLO burn-rate alerts are firing. A
``--once`` render (no clear, single frame) is what CI uses to prove the
pipeline end to end.

The dashboard reads only the :class:`~repro.obs.collector.MetricsCollector`
in front of it; it never talks to replicas directly, so pointing it at a
fleet costs the fleet exactly the collector's pull load, no matter how
many terminals are watching.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, IO, List, Optional

from repro.obs.collector import MetricsCollector

__all__ = ["render_dashboard", "run_dashboard"]

_CLEAR = "\x1b[2J\x1b[H"

_COLUMNS = (
    ("instance", 12), ("up", 4), ("qps", 8), ("shed/s", 8),
    ("queue", 7), ("inflight", 8), ("p99 ms", 9), ("cache%", 7),
    ("circuit", 9),
)


def _fmt(value: Any, width: int) -> str:
    if value is None:
        text = "-"
    elif isinstance(value, bool):
        text = "UP" if value else "DOWN"
    elif isinstance(value, float):
        text = f"{value:.1f}"
    else:
        text = str(value)
    return text[:width].rjust(width)


def _row(summary: Dict[str, Any]) -> str:
    cache = summary.get("cache_hit_rate")
    cells = (
        summary["instance"], summary["up"], summary["qps"],
        summary["shed_per_s"], summary["queue_depth"], summary["in_flight"],
        summary["p99_ms"],
        None if cache is None else cache * 100.0,
        summary["circuit"],
    )
    return " ".join(
        _fmt(value, width) for value, (_, width) in zip(cells, _COLUMNS)
    )


def render_dashboard(collector: MetricsCollector, window_s: float = 10.0,
                     now: Optional[float] = None) -> str:
    """One dashboard frame as a plain string (no ANSI codes)."""
    now = time.time() if now is None else float(now)
    header = " ".join(name.rjust(width) for name, width in _COLUMNS)
    lines: List[str] = [
        f"fleet dashboard  {time.strftime('%H:%M:%S', time.localtime(now))}"
        f"  cycles={collector.cycles}  window={window_s:.0f}s",
        header,
        "-" * len(header),
    ]
    for summary in collector.summaries(window_s=window_s, now=now):
        lines.append(_row(summary))
    alerts = collector.alerts_payload()["alerts"]
    lines.append("")
    if alerts:
        lines.append(f"ALERTS FIRING ({len(alerts)}):")
        lines.extend(f"  {alert['summary']}" for alert in alerts)
    else:
        lines.append("alerts: none firing")
    return "\n".join(lines)


def run_dashboard(collector: MetricsCollector, interval_s: float = 1.0,
                  once: bool = False, window_s: float = 10.0,
                  out: Optional[IO[str]] = None) -> int:
    """Refresh loop (Ctrl-C to exit); ``once=True`` prints a single frame.

    Returns the number of frames rendered, which is what the CI render
    check asserts on.
    """
    out = sys.stdout if out is None else out
    frames = 0
    try:
        while True:
            frame = render_dashboard(collector, window_s=window_s)
            if once:
                out.write(frame + "\n")
            else:
                out.write(_CLEAR + frame + "\n")
            out.flush()
            frames += 1
            if once:
                return frames
            time.sleep(interval_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return frames

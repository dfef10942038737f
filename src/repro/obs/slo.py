"""SLO rules with multi-window burn-rate alerting over collected series.

The fleet :class:`~repro.obs.collector.MetricsCollector` folds every
replica's scrape into a :class:`SeriesStore`; this module turns those
series into *alerts* using the multi-window, multi-burn-rate pattern:
an :class:`SLORule` fires only when the error budget is burning at
``burn_factor``× the sustainable rate over **both** a long window (so a
brief blip cannot page) and a short window (so a recovered incident
stops paging immediately). Three rule kinds cover the serving SLOs this
repo cares about:

``availability``
    ``serve_errors_total / serve_requests_total`` against an objective
    like 0.999 — the burn is the window error ratio divided by the
    error budget ``1 − objective``.
``shed_rate``
    ``serve_shed_total / (serve_requests_total + serve_shed_total)``
    against a tolerable shed fraction; sustained overload fires this
    long before availability moves, because sheds are rejected *before*
    they can fail.
``latency_p99``
    p99 interpolated from ``serve_request_seconds`` bucket deltas over
    the window, against a threshold in seconds.
``drift_score``
    The worst ``stream_drift_score`` gauge (max over projections and
    over the window) against the drift SLO threshold — sustained
    distribution drift that the automatic re-projection response is not
    absorbing fires this before stale cluster models degrade answers.

Rules are evaluated per instance (one replica = one failure domain) —
a fleet-wide rollup would let one sick replica hide behind N−1 healthy
ones.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ValidationError

__all__ = ["Alert", "SeriesStore", "SLOEvaluator", "SLORule", "Window",
           "default_rules"]

LabelItems = Tuple[Tuple[str, str], ...]


#: Points each series ring keeps.
SERIES_CAPACITY = 512

def _labels_key(labels: Optional[Dict[str, Any]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class SeriesStore:
    """Labeled time-series ring buffers: ``(instance, name, labels) → ring``.

    Each ring holds ``(ts, value)`` pairs, newest last, bounded at
    :data:`SERIES_CAPACITY` points — at the collector's default 2 s pull
    interval that keeps ~17 minutes of history, comfortably more
    than the longest default SLO window. Histogram families are stored
    exploded: one ring per ``le`` bucket (cumulative count) plus
    ``_sum``/``_count`` rings, which is exactly the shape the burn-rate
    math and the p99 interpolation need.
    """

    def __init__(self):
        self.capacity = SERIES_CAPACITY
        self._series: Dict[Tuple[str, str, LabelItems], deque] = {}
        self._lock = threading.Lock()

    # -- ingest ---------------------------------------------------------------

    def record(self, instance: str, name: str,
               labels: Optional[Dict[str, Any]], value: float,
               ts: float) -> None:
        key = (str(instance), str(name), _labels_key(labels))
        with self._lock:
            ring = self._series.get(key)
            if ring is None:
                ring = self._series[key] = deque(maxlen=self.capacity)
            ring.append((float(ts), float(value)))

    def ingest_families(self, instance: str,
                        families: Dict[str, Any], ts: float) -> None:
        """Fold one scrape's ``render_json`` families into the store."""
        for name, fam in families.items():
            ftype = fam.get("type")
            for sample in fam.get("samples", ()):
                labels = sample.get("labels") or {}
                if ftype == "histogram":
                    for bound, cum in (sample.get("buckets") or {}).items():
                        self.record(instance, f"{name}_bucket",
                                    {**labels, "le": bound}, cum, ts)
                    self.record(instance, f"{name}_sum", labels,
                                sample.get("sum", 0.0), ts)
                    self.record(instance, f"{name}_count", labels,
                                sample.get("count", 0), ts)
                else:
                    self.record(instance, name, labels,
                                sample.get("value", 0.0), ts)

    # -- reads ----------------------------------------------------------------

    def instances(self) -> List[str]:
        with self._lock:
            return sorted({key[0] for key in self._series})

    def label_sets(self, instance: str, name: str) -> List[LabelItems]:
        with self._lock:
            return [key[2] for key in self._series
                    if key[0] == instance and key[1] == name]

    def latest(self, instance: str, name: str) -> Optional[float]:
        """Newest value of an unlabeled series, or ``None``."""
        key = (str(instance), str(name), ())
        with self._lock:
            ring = self._series.get(key)
            return ring[-1][1] if ring else None

    def _ring(self, instance: str, name: str,
              labels_key: LabelItems) -> List[Tuple[float, float]]:
        with self._lock:
            ring = self._series.get((str(instance), str(name), labels_key))
            return list(ring) if ring else []

    def delta(self, instance: str, name: str,
              labels: Optional[Dict[str, Any]], window_s: float,
              now: Optional[float] = None) -> float:
        """Cumulative-counter increase over the trailing window.

        Uses the newest point at or before ``now − window_s`` as the
        baseline (the sample *straddling* the window edge, so short
        windows on a slow scrape cadence never read as empty) and clamps
        at zero across counter resets (replica restart).
        """
        return self._delta_ring(
            self._ring(instance, name, _labels_key(labels)), window_s, now
        )

    @staticmethod
    def _delta_ring(points: List[Tuple[float, float]], window_s: float,
                    now: Optional[float]) -> float:
        if len(points) < 2:
            return 0.0
        now = points[-1][0] if now is None else float(now)
        edge = now - float(window_s)
        base = points[0][1]
        for ts, value in points:
            if ts > edge:
                break
            base = value
        return max(0.0, points[-1][1] - base)

    def sum_delta(self, instance: str, name: str, window_s: float,
                  now: Optional[float] = None) -> float:
        """Window delta summed across every label set of a family."""
        return sum(
            self._delta_ring(self._ring(instance, name, key), window_s, now)
            for key in self.label_sets(instance, name)
        )

    def window_max(self, instance: str, name: str, window_s: float,
                   now: Optional[float] = None) -> Optional[float]:
        """Max gauge value across every label set over the trailing window.

        Like :meth:`delta`, the newest sample at or before the window
        edge participates (a gauge's value is in effect until the next
        sample), so a slow scrape cadence never reads as "no data".
        Returns ``None`` when the family has no samples at all.
        """
        best: Optional[float] = None
        for key in self.label_sets(instance, name):
            points = self._ring(instance, name, key)
            if not points:
                continue
            now_v = points[-1][0] if now is None else float(now)
            edge = now_v - float(window_s)
            straddle: Optional[float] = None
            ring_best: Optional[float] = None
            for ts, value in points:
                if ts <= edge:
                    straddle = value
                elif ring_best is None or value > ring_best:
                    ring_best = value
            if ring_best is None:
                ring_best = straddle
            if ring_best is not None and (best is None or ring_best > best):
                best = ring_best
        return best

    def quantile(self, instance: str, name: str, q: float, window_s: float,
                 now: Optional[float] = None) -> Optional[float]:
        """Quantile from histogram bucket deltas over the window.

        Linear interpolation within the winning bucket, the standard
        Prometheus ``histogram_quantile`` estimate. Returns ``None``
        when the window saw no observations.
        """
        buckets: List[Tuple[float, float]] = []
        for key in self.label_sets(instance, f"{name}_bucket"):
            labels = dict(key)
            le = labels.get("le")
            if le is None:
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            delta = self._delta_ring(
                self._ring(instance, f"{name}_bucket", key), window_s, now
            )
            buckets.append((bound, delta))
        buckets.sort(key=lambda item: item[0])
        if not buckets or buckets[-1][1] <= 0:
            return None
        total = buckets[-1][1]
        rank = q * total
        prev_bound, prev_cum = 0.0, 0.0
        for bound, cum in buckets:
            if cum >= rank:
                if bound == float("inf"):
                    return prev_bound
                span = cum - prev_cum
                frac = (rank - prev_cum) / span if span > 0 else 1.0
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_cum = bound, cum
        return buckets[-1][0] if buckets[-1][0] != float("inf") else prev_bound


@dataclass(frozen=True)
class Window:
    """One (long, short) burn-rate window pair.

    The alert fires when the burn rate meets ``burn_factor`` over *both*
    windows — the long one for significance, the short one so the alert
    clears promptly once the incident ends.
    """

    long_s: float
    short_s: float
    burn_factor: float
    severity: str = "page"

    def __post_init__(self):
        if self.long_s <= 0 or self.short_s <= 0 or self.short_s > self.long_s:
            raise ValidationError("need 0 < short_s <= long_s")
        if self.burn_factor <= 0:
            raise ValidationError("burn_factor must be > 0")


@dataclass(frozen=True)
class SLORule:
    """One SLO: a kind, an objective, and its burn windows."""

    name: str
    kind: str  # availability | shed_rate | latency_p99
    objective: float
    windows: Tuple[Window, ...] = (
        Window(300.0, 60.0, 4.0, "page"),
        Window(1800.0, 300.0, 2.0, "ticket"),
    )

    def __post_init__(self):
        if self.kind not in (
            "availability", "shed_rate", "latency_p99", "drift_score"
        ):
            raise ValidationError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "availability" and not 0 < self.objective < 1:
            raise ValidationError("availability objective must be in (0, 1)")
        if self.kind == "shed_rate" and not 0 < self.objective < 1:
            raise ValidationError("shed_rate objective must be in (0, 1)")
        if self.kind == "latency_p99" and self.objective <= 0:
            raise ValidationError("latency_p99 objective must be > 0 seconds")
        if self.kind == "drift_score" and not 0 < self.objective <= 1:
            raise ValidationError(
                "drift_score objective must be in (0, 1] (TV is bounded by 1)"
            )


@dataclass(frozen=True)
class Alert:
    """A firing SLO rule on one instance (both windows over budget)."""

    rule: str
    kind: str
    instance: str
    severity: str
    burn: float          # burn rate over the long window
    burn_short: float
    window_s: float
    value: float         # the raw windowed measurement (ratio or seconds)
    at: float = field(compare=False, default=0.0)

    def describe(self) -> str:
        unit = "s" if self.kind == "latency_p99" else ""
        return (
            f"[{self.severity}] {self.rule} on {self.instance}: "
            f"burn {self.burn:.1f}x over {self.window_s:.0f}s "
            f"(short {self.burn_short:.1f}x, value {self.value:.4g}{unit})"
        )


def default_rules() -> Tuple[SLORule, ...]:
    """The stock serving SLOs the collector evaluates out of the box."""
    return (
        SLORule("availability", "availability", 0.999),
        SLORule("shed_rate", "shed_rate", 0.05),
        SLORule("latency_p99", "latency_p99", 0.25,
                windows=(Window(300.0, 60.0, 1.0, "page"),)),
        # TV is bounded by 1, so drift burns at factor 1 against the
        # threshold itself: both windows over the objective means the
        # drift response is not keeping up, not just one noisy window.
        SLORule("drift_score", "drift_score", 0.25,
                windows=(Window(300.0, 60.0, 1.0, "ticket"),)),
    )


class SLOEvaluator:
    """Evaluate :class:`SLORule` burn rates against a :class:`SeriesStore`."""

    def __init__(self, rules: Iterable[SLORule]):
        self.rules: Tuple[SLORule, ...] = tuple(rules)

    def evaluate(self, store: SeriesStore,
                 now: Optional[float] = None) -> List[Alert]:
        now = time.time() if now is None else float(now)
        alerts: List[Alert] = []
        for instance in store.instances():
            for rule in self.rules:
                alerts.extend(self._eval_rule(store, instance, rule, now))
        return alerts

    def _eval_rule(self, store: SeriesStore, instance: str, rule: SLORule,
                   now: float) -> List[Alert]:
        out: List[Alert] = []
        for window in rule.windows:
            burn_long, value = self._burn(
                store, instance, rule, window.long_s, now
            )
            if burn_long is None or burn_long < window.burn_factor:
                continue
            burn_short, _ = self._burn(
                store, instance, rule, window.short_s, now
            )
            if burn_short is None or burn_short < window.burn_factor:
                continue
            out.append(Alert(
                rule=rule.name, kind=rule.kind, instance=instance,
                severity=window.severity, burn=burn_long,
                burn_short=burn_short, window_s=window.long_s,
                value=value, at=now,
            ))
            break  # report the most urgent window only
        return out

    @staticmethod
    def _burn(store: SeriesStore, instance: str, rule: SLORule,
              window_s: float, now: float):
        """(burn rate, measured value) over one window, or ``(None, _)``."""
        if rule.kind == "availability":
            requests = store.delta(
                instance, "serve_requests_total", None, window_s, now
            )
            errors = store.delta(
                instance, "serve_errors_total", None, window_s, now
            )
            if requests + errors <= 0:
                return None, 0.0
            ratio = errors / (requests + errors)
            return ratio / (1.0 - rule.objective), ratio
        if rule.kind == "shed_rate":
            requests = store.delta(
                instance, "serve_requests_total", None, window_s, now
            )
            sheds = store.sum_delta(
                instance, "serve_shed_total", window_s, now
            )
            if requests + sheds <= 0:
                return None, 0.0
            ratio = sheds / (requests + sheds)
            return ratio / rule.objective, ratio
        if rule.kind == "drift_score":
            score = store.window_max(
                instance, "stream_drift_score", window_s, now
            )
            if score is None:
                return None, 0.0
            return score / rule.objective, score
        # latency_p99
        p99 = store.quantile(
            instance, "serve_request_seconds", 0.99, window_s, now
        )
        if p99 is None:
            return None, 0.0
        return p99 / rule.objective, p99

"""Thread-safe metrics registry: labeled counters, gauges, histograms.

This is the repo's single runtime-telemetry substrate. Design constraints,
in order:

1. **Hot-path cheap.** Recording is one ``enabled`` check, one tiny lock,
   one arithmetic op. In no-op mode (``registry.disable()``) recording is
   the ``enabled`` check alone — the instrumented kernels, ``partial_fit``
   and the serve predict path are guarded to regress < 3% with telemetry
   off (``benchmarks/test_obs_overhead.py``).
2. **Exact under concurrency.** Every mutation happens under the child's
   lock, so counter totals are exact and histogram snapshots are never
   torn (bucket counts always sum to ``count``) no matter how many
   threads hammer one series — the same guarantee
   :meth:`repro.serve.cache.LabelCache.snapshot` gives.
3. **Dependency-free.** Stdlib + nothing. The Prometheus text format is
   produced by :mod:`repro.obs.exposition`, not by a client library.

A process-global default registry (:func:`default_registry`) is what the
built-in instrumentation writes to; libraries embedding repro can swap in
their own via :func:`set_default_registry` or silence everything with
``default_registry().disable()``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "POW2_BUCKETS",
    "default_registry",
    "set_default_registry",
]

#: Latency-ish bucket upper bounds (seconds), Prometheus ``le`` semantics.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Power-of-two size buckets (batch sizes, payload bytes, ...).
POW2_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(13))


def _label_key(
    labelnames: Tuple[str, ...], labels: Dict[str, Any], metric: str
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValidationError(
            f"metric {metric!r} takes labels {list(labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _CounterChild:
    """One (metric, label-values) series. Monotonic float."""

    __slots__ = ("_registry", "_lock", "_value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only go up; use a gauge")
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    """One gauge series. Goes up, down, or jumps."""

    __slots__ = ("_registry", "_lock", "_value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-water marks)."""
        if not self._registry.enabled:
            return
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild:
    """One histogram series: fixed upper bounds + an implicit +Inf bucket."""

    __slots__ = ("_registry", "_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, registry: "MetricsRegistry", bounds: Tuple[float, ...]):
        self._registry = registry
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        idx = bisect.bisect_left(self._bounds, value)  # first bound >= value
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def snapshot(self) -> Dict[str, Any]:
        """Consistent (never torn) view: per-bucket counts, sum, count."""
        with self._lock:
            counts = list(self._counts)
            total, s = self._count, self._sum
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self._bounds, counts):
            running += n
            cumulative[_format_bound(bound)] = running
        cumulative["+Inf"] = running + counts[-1]
        return {"buckets": cumulative, "sum": s, "count": total}


def _format_bound(bound: float) -> str:
    return str(int(bound)) if float(bound).is_integer() else repr(bound)


class _Family:
    """One named metric family: shared kind/help, children per label set."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self._registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "counter":
            return _CounterChild(self._registry)
        if self.kind == "gauge":
            return _GaugeChild(self._registry)
        assert self.buckets is not None
        return _HistogramChild(self._registry, self.buckets)

    def labels(self, **labels: Any):
        """The child series for these label values (created on first use)."""
        key = _label_key(self.labelnames, labels, self.name)
        child = self._children.get(key)  # lock-free fast path (GIL-safe read)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Unlabeled families act as their own (single) child.

    def _default_child(self):
        if self.labelnames:
            raise ValidationError(
                f"metric {self.name!r} is labeled {list(self.labelnames)}; "
                "call .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_max(self, value: float) -> None:
        self._default_child().set_max(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly family dump: one sample per child."""
        with self._lock:
            items = list(self._children.items())
        samples = []
        for key, child in items:
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                samples.append({"labels": labels, **child.snapshot()})
            else:
                samples.append({"labels": labels, "value": child.value})
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": samples,
        }


# Public aliases so type hints and docs read naturally.
Counter = _Family
Gauge = _Family
Histogram = _Family


class MetricsRegistry:
    """Create-or-get metric families; collect consistent snapshots.

    Re-registering an existing name returns the same family (so call sites
    can look metrics up on every hit without caching handles), but a kind
    or label-schema mismatch is a hard :class:`ValidationError` — two
    subsystems silently sharing a name with different meanings is a bug.
    """

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self.enabled = bool(enabled)

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        """No-op mode: every subsequent record call returns immediately."""
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop every family (tests/benchmarks only — handles go stale)."""
        with self._lock:
            self._families.clear()

    # -- registration --------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
    ) -> _Family:
        labelnames = tuple(labelnames)
        bucket_t: Optional[Tuple[float, ...]] = None
        if kind == "histogram":
            bucket_t = tuple(sorted(float(b) for b in DEFAULT_TIME_BUCKETS))
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValidationError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.labelnames)}"
                    )
                return existing
            family = _Family(self, name, kind, help, labelnames, bucket_t)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """An unlabeled histogram over :data:`DEFAULT_TIME_BUCKETS`."""
        return self._register(name, "histogram", help, ())

    # -- collection ----------------------------------------------------------

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def collect(self) -> List[Dict[str, Any]]:
        """Snapshot every family (each child snapshot is internally consistent)."""
        return [family.snapshot() for family in self.families()]


_default = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry the built-in instrumentation records to."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default
    if not isinstance(registry, MetricsRegistry):
        raise ValidationError("set_default_registry needs a MetricsRegistry")
    with _default_lock:
        previous, _default = _default, registry
    return previous

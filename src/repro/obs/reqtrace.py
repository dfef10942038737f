"""Cross-process request tracing over the serve/fleet wire protocol.

A predict that traverses client → :class:`~repro.fleet.router.FleetRouter`
→ replica :class:`~repro.serve.server.ModelServer` → micro-batch flush →
model call crosses three processes and four queues; per-process phase
spans (:mod:`repro.obs.trace`) cannot follow it. This module adds the
minimal distributed-tracing layer that can:

* **Trace context on the wire** — an optional ``"trace"`` field on the
  existing newline-JSON protocol::

      {"op": "predict", "x": [...], "trace": {"id": "<16hex>",
                                              "span": "<16hex>",
                                              "sampled": 1}}

  :func:`inject` writes it from a live span, :func:`extract` reads it
  back into a :class:`TraceContext`. A request without the field behaves
  exactly as before (and the router keeps forwarding it byte-for-byte).

* **Linked spans** — every hop (client call, router route, per-replica
  forward/failover attempt, replica admission, queue wait, model call /
  cache hit) opens an :class:`ActiveSpan` whose parent id is the span
  that carried the request into it, so one request reconstructs into one
  connected tree across processes.

* **Sampling** — head-based: the *client* (or whichever hop starts the
  trace) flips a coin once at ``sample_rate`` and the decision rides the
  wire in ``sampled``. Unsampled spans still propagate context but emit
  nothing — **unless they end in an error status** (shed, deadline
  exceeded, circuit open, connection lost, ...), which is always emitted
  so overload and failure forensics never depend on the sampling dice.

* **TraceSink** — bounded JSON-lines export: an in-memory ring for tests
  and the dashboard plus an optional append-mode file (``{pid}`` in the
  path expands per process, so N replica processes write N files that
  :func:`load_spans` reads back together). A hard :data:`MAX_SPANS` cap
  bounds file growth; overflow increments ``dropped`` instead of
  blocking the serving path.

The reconstruction half (:func:`load_spans`, :func:`build_traces`,
:func:`render_trace`, :func:`trace_summary`) is what ``python -m repro
obs-trace`` renders: the span tree with per-hop latency and a
critical-path summary keyed to the paper's §3 cost phases.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import random
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TraceContext",
    "TraceSink",
    "RequestTracer",
    "ActiveSpan",
    "inject",
    "extract",
    "configure_tracer",
    "get_tracer",
    "reset_tracer",
    "load_spans",
    "build_traces",
    "render_trace",
    "trace_summary",
    "PHASE_OF_HOP",
]

#: Hop name → paper-§3 cost-model phase, for the obs-trace summary. The
#: model call is the per-point predict kernel (§3's O(n·d) labeling
#: term); everything else is serving machinery layered around it.
PHASE_OF_HOP: Dict[str, str] = {
    "client/predict": "client round trip",
    "router/route": "routing decision",
    "router/forward": "transport (router->replica)",
    "server/predict": "replica handling",
    "server/admission": "admission control",
    "server/queue": "micro-batch linger",
    "server/model_call": "predict kernel (paper §3)",
    "server/cache_hit": "label cache (paper §3 bypass)",
}

_HEX = "0123456789abcdef"

#: Spans a sink writes to its file before counting the rest as dropped.
MAX_SPANS = 100_000
#: Length of a sink's in-memory ring of the most recent spans.
MEMORY_SPANS = 4096


def _gen_id(rng: random.Random) -> str:
    return "".join(rng.choice(_HEX) for _ in range(16))


def _valid_id(value: Any) -> bool:
    return (
        isinstance(value, str)
        and len(value) == 16
        and all(c in _HEX for c in value)
    )


class TraceContext:
    """The portable identity of one span: what rides the wire."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = bool(sampled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id}, {self.span_id}, "
            f"sampled={self.sampled})"
        )


def inject(payload: Dict[str, Any], span: Union["ActiveSpan", TraceContext]) -> None:
    """Write ``span``'s context into a request payload (in place)."""
    ctx = span.context if isinstance(span, ActiveSpan) else span
    if ctx is None:
        return
    payload["trace"] = {
        "id": ctx.trace_id,
        "span": ctx.span_id,
        "sampled": 1 if ctx.sampled else 0,
    }


def extract(request: Optional[Dict[str, Any]]) -> Optional[TraceContext]:
    """Read a :class:`TraceContext` off a parsed request, or ``None``.

    Tolerant by design: a malformed ``trace`` field means the request is
    served untraced, never rejected — tracing must not be able to break
    serving.
    """
    if not isinstance(request, dict):
        return None
    field = request.get("trace")
    if not isinstance(field, dict):
        return None
    trace_id, span_id = field.get("id"), field.get("span")
    if not (_valid_id(trace_id) and _valid_id(span_id)):
        return None
    return TraceContext(trace_id, span_id, bool(field.get("sampled")))


class TraceSink:
    """Bounded, thread-safe span export: memory ring + optional JSONL file.

    Parameters
    ----------
    path:
        Optional JSON-lines file (append mode, opened lazily). ``{pid}``
        in the path expands to the writing process id, so multi-process
        fleets get one file per process without coordination.

    At most :data:`MAX_SPANS` spans reach the file; overflow is counted in
    :attr:`dropped`, never blocks, never raises. The in-memory ring of the
    :data:`MEMORY_SPANS` most recent spans is what tests and the live
    dashboard read without touching disk.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = None if path is None else path.replace(
            "{pid}", str(os.getpid())
        )
        self.max_spans = MAX_SPANS
        self._ring: deque = deque(maxlen=MEMORY_SPANS)
        self._file = None
        self._lock = threading.Lock()
        self.emitted = 0
        self.dropped = 0

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._ring.append(record)
            self.emitted += 1
            if self.path is None:
                return
            if self.emitted > self.max_spans:
                self.dropped += 1
                return
            try:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(json.dumps(record) + "\n")
                self._file.flush()
            except OSError:
                # A full disk must degrade tracing, never serving.
                self.dropped += 1

    def spans(self) -> List[Dict[str, Any]]:
        """Most recent spans (the in-memory ring), oldest first."""
        with self._lock:
            return list(self._ring)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class _NoopSpan:
    """Shared do-nothing span for the untraced / tracer-disabled path."""

    __slots__ = ()
    name = ""
    context: Optional[TraceContext] = None
    sampled = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class ActiveSpan:
    """One live hop of a traced request (context manager).

    Emitted to the sink on exit when the trace is sampled **or** the span
    ended in a non-``ok`` status (always-sample-on-error). An exception
    escaping the ``with`` body marks the status ``exception`` unless a
    more specific status was already set.
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id",
                 "sampled", "attrs", "status", "start", "duration", "_t0")

    def __init__(self, tracer: "RequestTracer", name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str], sampled: bool,
                 attrs: Optional[Dict[str, Any]] = None):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = bool(sampled)
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.status = "ok"
        self.start = 0.0
        self.duration = 0.0
        self._t0 = 0.0

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, self.sampled)

    def set_status(self, status: str) -> None:
        self.status = str(status)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "ActiveSpan":
        self.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None and self.status == "ok":
            code = getattr(exc, "code", None)
            self.status = code if isinstance(code, str) else "exception"
        if self.sampled or self.status != "ok":
            self._tracer._emit_span(self)


class RequestTracer:
    """Factory for request spans bound to one :class:`TraceSink`.

    ``sink=None`` (the default for the process-global tracer) disables
    tracing entirely: every factory method returns the shared
    :data:`NOOP_SPAN` and the hot path pays one attribute check.
    """

    def __init__(self, sink: Optional[TraceSink] = None,
                 sample_rate: float = 1.0, seed: Optional[int] = None):
        if not 0.0 <= float(sample_rate) <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sink = sink
        self.sample_rate = float(sample_rate)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.sink is not None

    # -- span factories ------------------------------------------------------

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.sample_rate

    def _ids(self) -> str:
        with self._lock:
            return _gen_id(self._rng)

    def root(self, name: str, force: bool = False,
             attrs: Optional[Dict[str, Any]] = None) -> Union[ActiveSpan, _NoopSpan]:
        """Start a new trace; the head-based sampling decision is made here."""
        if self.sink is None:
            return NOOP_SPAN
        sampled = True if force else self._sample()
        return ActiveSpan(self, name, self._ids(), self._ids(), None,
                          sampled, attrs)

    def child_of(self, parent: Union[ActiveSpan, TraceContext, None],
                 name: str,
                 attrs: Optional[Dict[str, Any]] = None) -> Union[ActiveSpan, _NoopSpan]:
        """A span under ``parent`` (an :class:`ActiveSpan` or wire context)."""
        if self.sink is None or parent is None or parent is NOOP_SPAN:
            return NOOP_SPAN
        ctx = parent.context if isinstance(parent, ActiveSpan) else parent
        return ActiveSpan(self, name, ctx.trace_id, self._ids(), ctx.span_id,
                          ctx.sampled, attrs)

    def from_wire(self, request: Optional[Dict[str, Any]],
                  name: str) -> Union[ActiveSpan, _NoopSpan]:
        """A span continuing the context carried by a wire request."""
        if self.sink is None:
            return NOOP_SPAN
        return self.child_of(extract(request), name)

    def event(self, name: str,
              parent: Union[ActiveSpan, TraceContext, None] = None,
              attrs: Optional[Dict[str, Any]] = None) -> None:
        """A zero-duration control-plane record, always emitted.

        Ejections, readmissions, and rollout stage transitions use this:
        rare, operationally load-bearing, never worth sampling away.
        """
        if self.sink is None:
            return
        if parent is None or parent is NOOP_SPAN:
            trace_id, parent_id = self._ids(), None
        else:
            ctx = parent.context if isinstance(parent, ActiveSpan) else parent
            trace_id, parent_id = ctx.trace_id, ctx.span_id
        self.sink.emit({
            "trace": trace_id, "span": self._ids(), "parent": parent_id,
            "name": name, "start": time.time(), "dur": 0.0,
            "status": "event", "attrs": dict(attrs) if attrs else {},
        })

    def emit_timed(self, name: str,
                   parent: Union[ActiveSpan, TraceContext, None],
                   duration: float, status: str = "ok",
                   attrs: Optional[Dict[str, Any]] = None) -> None:
        """Emit an already-measured span (for hops timed outside a ``with``).

        The micro-batcher uses this: queue wait and model-call durations
        are known only at flush time, long after the hop began. ``start``
        is reconstructed as now − duration.
        """
        if self.sink is None or parent is None or parent is NOOP_SPAN:
            return
        ctx = parent.context if isinstance(parent, ActiveSpan) else parent
        if not ctx.sampled and status == "ok":
            return
        self.sink.emit({
            "trace": ctx.trace_id, "span": self._ids(),
            "parent": ctx.span_id, "name": name,
            "start": time.time() - float(duration),
            "dur": float(duration), "status": status,
            "attrs": dict(attrs) if attrs else {},
        })

    def _emit_span(self, span: ActiveSpan) -> None:
        assert self.sink is not None
        self.sink.emit({
            "trace": span.trace_id, "span": span.span_id,
            "parent": span.parent_id, "name": span.name,
            "start": span.start, "dur": span.duration,
            "status": span.status, "attrs": span.attrs,
        })


#: Process-global tracer; disabled (no sink) until configured.
_tracer = RequestTracer()
_tracer_lock = threading.Lock()


def get_tracer() -> RequestTracer:
    return _tracer


def configure_tracer(path: Optional[str] = None, sample_rate: float = 1.0,
                     sink: Optional[TraceSink] = None,
                     seed: Optional[int] = None) -> RequestTracer:
    """Install the process-global tracer (pass a sink, or a path for one)."""
    global _tracer
    if sink is None:
        sink = TraceSink(path)
    with _tracer_lock:
        _tracer = RequestTracer(sink, sample_rate=sample_rate, seed=seed)
        return _tracer


def reset_tracer() -> None:
    """Disable the process-global tracer (tests; symmetric with configure)."""
    global _tracer
    with _tracer_lock:
        if _tracer.sink is not None:
            _tracer.sink.close()
        _tracer = RequestTracer()


# -- reconstruction ----------------------------------------------------------


def load_spans(paths: Union[str, Sequence[str]]) -> List[Dict[str, Any]]:
    """Read span records from JSONL file(s); globs expand, bad lines skip."""
    if isinstance(paths, str):
        paths = [paths]
    files: List[str] = []
    for pattern in paths:
        matched = sorted(_glob.glob(pattern))
        files.extend(matched if matched else [pattern])
    records: List[Dict[str, Any]] = []
    for path in files:
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError:
            continue
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "span" in record:
                    records.append(record)
    return records


class TraceTree:
    """One reconstructed trace: spans indexed by id, parent → children."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: Dict[str, Dict[str, Any]] = {}
        self.children: Dict[str, List[str]] = {}
        self.roots: List[str] = []
        #: Spans whose recorded parent id was never seen — a broken link
        #: (or an error-only record from an unsampled trace).
        self.orphans: List[str] = []

    @property
    def connected(self) -> bool:
        """True when the tree is one component: a single root, no orphans."""
        return len(self.roots) == 1 and not self.orphans

    @property
    def root(self) -> Optional[Dict[str, Any]]:
        return self.spans[self.roots[0]] if len(self.roots) == 1 else None

    def walk(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Depth-first (depth, span) pairs, children ordered by start time."""
        out: List[Tuple[int, Dict[str, Any]]] = []

        def _visit(span_id: str, depth: int) -> None:
            out.append((depth, self.spans[span_id]))
            kids = sorted(
                self.children.get(span_id, ()),
                key=lambda s: self.spans[s].get("start", 0.0),
            )
            for kid in kids:
                _visit(kid, depth + 1)

        for start_id in self.roots + self.orphans:
            _visit(start_id, 0)
        return out


def build_traces(records: Iterable[Dict[str, Any]]) -> Dict[str, TraceTree]:
    """Group span records into :class:`TraceTree`\\ s keyed by trace id."""
    trees: Dict[str, TraceTree] = {}
    for record in records:
        trace_id = record.get("trace")
        span_id = record.get("span")
        if not (_valid_id(trace_id) and _valid_id(span_id)):
            continue
        tree = trees.setdefault(trace_id, TraceTree(trace_id))
        tree.spans[span_id] = record
    for tree in trees.values():
        for span_id, record in tree.spans.items():
            parent = record.get("parent")
            if parent is None:
                tree.roots.append(span_id)
            elif parent in tree.spans:
                tree.children.setdefault(parent, []).append(span_id)
            else:
                tree.orphans.append(span_id)
        tree.roots.sort(key=lambda s: tree.spans[s].get("start", 0.0))
        tree.orphans.sort(key=lambda s: tree.spans[s].get("start", 0.0))
    return trees


def _self_times(tree: TraceTree) -> Dict[str, float]:
    """Exclusive time per span: duration minus child durations, floored at 0.

    Children are clamped so their sum never exceeds the parent (clock
    edges between processes can overshoot by microseconds); with that
    clamp the self times of a connected tree sum exactly to the root
    duration — the property the obs-trace summary reports against the
    client-observed latency.
    """
    out: Dict[str, float] = {}
    for span_id, record in tree.spans.items():
        dur = float(record.get("dur", 0.0))
        child_sum = sum(
            float(tree.spans[c].get("dur", 0.0))
            for c in tree.children.get(span_id, ())
        )
        out[span_id] = max(0.0, dur - min(child_sum, dur))
    return out


def render_trace(tree: TraceTree) -> str:
    """ASCII span tree with per-hop latency, statuses, and key attrs."""
    lines = [f"trace {tree.trace_id}"
             + ("" if tree.connected else
                f"  [DISCONNECTED: {len(tree.roots)} roots, "
                f"{len(tree.orphans)} orphans]")]
    selfs = _self_times(tree)
    for depth, record in tree.walk():
        status = record.get("status", "ok")
        marker = "" if status in ("ok", "event") else f"  !{status}"
        attrs = record.get("attrs") or {}
        detail = "".join(
            f"  {k}={attrs[k]}" for k in sorted(attrs)
        )
        dur_ms = float(record.get("dur", 0.0)) * 1e3
        self_ms = selfs.get(record.get("span", ""), 0.0) * 1e3
        lines.append(
            f"  {'  ' * depth}{record.get('name', '?'):<{max(4, 24 - 2 * depth)}}"
            f" {dur_ms:>9.3f} ms  (self {self_ms:>8.3f} ms){marker}{detail}"
        )
    return "\n".join(lines)


def trace_summary(tree: TraceTree) -> Dict[str, Any]:
    """Critical-path summary: self time per hop, keyed to §3 phases.

    Returns ``total_s`` (root duration), ``accounted_s`` (sum of
    per-hop self times — equal to ``total_s`` on a connected tree),
    ``hops`` (per hop name: total/self seconds, count, worst status) and
    ``phases`` (self time folded through :data:`PHASE_OF_HOP`).
    """
    selfs = _self_times(tree)
    hops: Dict[str, Dict[str, Any]] = {}
    for span_id, record in tree.spans.items():
        name = record.get("name", "?")
        hop = hops.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "status": "ok"}
        )
        hop["count"] += 1
        hop["total_s"] += float(record.get("dur", 0.0))
        hop["self_s"] += selfs[span_id]
        status = record.get("status", "ok")
        if status not in ("ok", "event"):
            hop["status"] = status
    phases: Dict[str, float] = {}
    for name, hop in hops.items():
        phase = PHASE_OF_HOP.get(name, "other")
        phases[phase] = phases.get(phase, 0.0) + hop["self_s"]
    root = tree.root
    total = float(root.get("dur", 0.0)) if root is not None else sum(
        h["total_s"] for h in hops.values()
    )
    return {
        "trace": tree.trace_id,
        "connected": tree.connected,
        "spans": len(tree.spans),
        "total_s": total,
        "accounted_s": sum(selfs.values()),
        "hops": hops,
        "phases": phases,
    }

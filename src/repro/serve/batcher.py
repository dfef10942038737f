"""Micro-batching request queue for online inference.

The serving economics of KeyBin2 are extreme: labeling one point costs
~70 µs (a dozen small numpy calls, all fixed dispatch overhead) while
labeling 500 points in one vectorized call costs ~0.2 µs *per point*.
The :class:`MicroBatcher` exploits this by coalescing concurrent
single-point ``predict`` requests into one vectorized model call.

A batch flushes when the event loop has no more rows to hand it: the
worker yields one loop iteration at a time (``asyncio.sleep(0)``) and
flushes after :data:`IDLE_YIELDS` consecutive yields add no row. Rows
already on their way join the batch, while a lone request pays a few
loop iterations (microseconds) rather than a timer: asyncio rounds any
sub-millisecond sleep up to about a millisecond. Two knobs cap the
linger while rows keep arriving:

* ``max_batch`` — flush as soon as this many rows are pending;
* ``max_delay_s`` — flush after this long even if rows are still
  arriving; ``0`` flushes on every wakeup without lingering.

Backpressure is a bounded pending queue: beyond ``max_queue`` waiting
rows, :meth:`submit` fails fast with :class:`QueueFullError` instead of
letting memory grow without limit during an overload.

Rows may carry an absolute monotonic *deadline*: at every flush, entries
whose deadline has passed are shed from the batch — their futures resolve
to :class:`~repro.errors.DeadlineExceededError` — *before* the model is
called, so expired requests never burn model time and never hang. The
time each row spent queued is recorded in the
``serve_queue_wait_seconds`` histogram, whether it was labeled or shed.

The batcher is transport-agnostic — the TCP server feeds it, but so do
in-process benchmarks — and model-agnostic: it calls a supplied
``predict_rows(matrix) -> (labels, record)`` function, so one consistent
model version labels every row of a flush (hot-swap safety lives in the
registry snapshot taken inside that function).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ValidationError,
)
from repro.obs import trace
from repro.obs.reqtrace import TraceContext, get_tracer
from repro.serve.stats import ServeStats

__all__ = ["BatchPolicy", "MicroBatcher"]


#: Consecutive event-loop iterations that add no row before a lingering
#: batch flushes. Rows already in socket buffers reach the queue within
#: two iterations of the worker's yield (select, then the handler task);
#: a third covers bytes that land just after an iteration's select.
IDLE_YIELDS = 3


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy knobs.

    A pending batch flushes once the event loop stops handing it rows
    (:data:`IDLE_YIELDS` loop iterations without a new row); these knobs
    only cap how long it may keep growing while rows keep arriving.

    Attributes
    ----------
    max_batch:
        Flush once this many rows are pending (also the vectorization
        width the model call sees).
    max_delay_s:
        Longest a batch lingers while rows keep arriving. ``0`` degenerates
        to one-call-per-wakeup (no linger at all, little coalescing under
        light load).
    max_queue:
        Bound on rows waiting to be batched; beyond it, submissions are
        rejected with :class:`QueueFullError`.
    """

    max_batch: int = 256
    max_delay_s: float = 0.005
    max_queue: int = 10_000

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.max_delay_s < 0:
            raise ValidationError("max_delay_s must be >= 0")
        if self.max_queue < self.max_batch:
            raise ValidationError("max_queue must be >= max_batch")


class MicroBatcher:
    """Coalesce awaitable single-row predictions into vectorized calls.

    Parameters
    ----------
    predict_rows:
        ``f(matrix) -> (labels, extra)`` where ``matrix`` is (B × N) and
        ``labels`` is length B. ``extra`` (e.g. a registry
        :class:`~repro.serve.registry.ModelRecord`) is handed back to every
        awaiting caller of the flush, so responses can carry the version
        that labeled them.
    policy:
        :class:`BatchPolicy` knobs.
    stats:
        Optional shared :class:`ServeStats`; per-flush batch sizes and
        service times are recorded there.

    Must be started from within a running asyncio event loop::

        batcher = MicroBatcher(service.predict_rows, BatchPolicy())
        batcher.start()
        label, record = await batcher.submit(row)
        ...
        await batcher.stop()
    """

    def __init__(
        self,
        predict_rows: Callable[[np.ndarray], Tuple[np.ndarray, Any]],
        policy: Optional[BatchPolicy] = None,
        stats: Optional[ServeStats] = None,
        flush_info: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self.predict_rows = predict_rows
        self.policy = policy or BatchPolicy()
        self.stats = stats
        # Optional post-flush introspection hook (the server wires it to
        # the inference service's last-flush cache accounting) so traced
        # model-call spans can say whether the flush was a pure cache hit.
        self.flush_info = flush_info
        # Entries are (row, future, deadline, enqueue_time, trace_ctx);
        # deadline is an absolute time.monotonic() instant or None (never
        # expires), trace_ctx the request's wire TraceContext or None.
        self._pending: List[Tuple[np.ndarray, asyncio.Future,
                                  Optional[float], float,
                                  Optional[TraceContext]]] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._crashed: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "MicroBatcher":
        if self._task is not None:
            raise ServeError("batcher already started")
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._stopping = False
        self._crashed = None
        self._task = self._loop.create_task(self._worker())
        return self

    async def stop(self) -> None:
        """Drain pending work, then stop the worker."""
        if self._task is None:
            return
        self._stopping = True
        assert self._wakeup is not None
        self._wakeup.set()
        await self._task
        self._task = None

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    # -- submission ------------------------------------------------------------

    def submit_nowait(
        self, row: np.ndarray, deadline: Optional[float] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> asyncio.Future:
        """Queue one point; return the future resolving to ``(label, extra)``.

        The no-coroutine fast path: callers fanning out many rows at once
        (load generators, in-process benchmarks) avoid one coroutine object
        and one scheduling hop per request. Raises :class:`QueueFullError`
        immediately when the pending queue is at capacity (backpressure),
        and :class:`ServeError` if the batcher is not running. ``deadline``
        is an absolute ``time.monotonic()`` instant after which the row is
        shed at flush time instead of labeled.
        """
        if self._task is None or self._stopping:
            raise ServeError("batcher is not running")
        if self._crashed is not None:
            raise ServeError(
                f"batcher worker crashed and can no longer serve: "
                f"{self._crashed!r}"
            )
        if len(self._pending) >= self.policy.max_queue:
            if self.stats is not None:
                self.stats.record_rejected()
            raise QueueFullError(
                f"serving queue at capacity ({self.policy.max_queue} rows)"
            )
        assert self._loop is not None and self._wakeup is not None
        fut = self._loop.create_future()
        self._pending.append((row, fut, deadline, time.monotonic(), trace_ctx))
        self._wakeup.set()
        return fut

    async def submit(self, row: np.ndarray, deadline: Optional[float] = None,
                     trace_ctx: Optional[TraceContext] = None):
        """Queue one point; await ``(label, extra)`` from its flush."""
        return await self.submit_nowait(row, deadline=deadline,
                                        trace_ctx=trace_ctx)

    # -- worker ---------------------------------------------------------------

    async def _worker(self) -> None:
        try:
            # The worker task starts from whatever context start() ran in;
            # re-root its spans so flushes always trace as serve/flush/...
            with trace.propagate(("serve",)):
                await self._worker_loop()
        except Exception as exc:
            # _flush confines per-batch failures to that batch's futures, so
            # reaching here means the loop itself broke. Fail everything
            # pending (no client left hanging) and mark the batcher dead so
            # submit() raises instead of enqueueing rows nobody will flush.
            self._crashed = exc
            pending, self._pending = self._pending, []
            for _, fut, _, _, _ in pending:
                if not fut.done():
                    fut.set_exception(
                        ServeError(f"batcher worker crashed: {exc!r}")
                    )
            if self.stats is not None:
                self.stats.record_error()

    async def _worker_loop(self) -> None:
        assert self._wakeup is not None
        policy = self.policy
        while True:
            await self._wakeup.wait()
            if not self._pending:
                if self._stopping:
                    return
                self._wakeup.clear()
                continue
            # Linger while the event loop keeps handing us rows — unless
            # the batch is already full or we are draining for shutdown.
            if policy.max_delay_s > 0:
                deadline = time.perf_counter() + policy.max_delay_s
                idle = 0
                while (
                    idle < IDLE_YIELDS
                    and len(self._pending) < policy.max_batch
                    and not self._stopping
                    and time.perf_counter() < deadline
                ):
                    before = len(self._pending)
                    await asyncio.sleep(0)
                    idle = idle + 1 if len(self._pending) == before else 0
            batch = self._pending[: policy.max_batch]
            del self._pending[: policy.max_batch]
            if not self._pending:
                self._wakeup.clear()
                if self._stopping:
                    self._wakeup.set()  # let the loop observe the drain
            try:
                self._flush(batch)
            except Exception as exc:
                # _flush failing is a bug (it confines per-batch errors
                # itself) — but this batch is already popped, so fail its
                # futures here before the crash wrapper handles the rest.
                for _, fut, _, _, _ in batch:
                    if not fut.done():
                        fut.set_exception(
                            ServeError(f"batcher worker crashed: {exc!r}")
                        )
                raise

    def _shed_expired(self, batch: List[Tuple]) -> List[Tuple]:
        """Record queue-wait for every entry; shed the expired ones.

        Returns the still-live entries. Runs *before* the model call, so an
        expired row never burns model time and its caller gets an explicit
        :class:`DeadlineExceededError` instead of a label it no longer
        wants (or a hung future). Traced entries get their ``server/queue``
        span emitted here — for shed rows with status ``deadline_exceeded``,
        which the tracer always exports regardless of sampling.
        """
        now = time.monotonic()
        tracer = get_tracer()
        live = []
        for entry in batch:
            _, fut, deadline, t_enq, trace_ctx = entry
            wait = now - t_enq
            if self.stats is not None:
                self.stats.record_queue_wait(wait)
            if deadline is not None and now > deadline:
                if not fut.done():
                    fut.set_exception(
                        DeadlineExceededError(
                            "deadline expired while queued "
                            f"({wait * 1e3:.1f} ms in queue)"
                        )
                    )
                if self.stats is not None:
                    self.stats.record_deadline_expired("queue")
                if trace_ctx is not None and tracer.enabled:
                    tracer.emit_timed("server/queue", trace_ctx, wait,
                                      status="deadline_exceeded")
            else:
                if trace_ctx is not None and tracer.enabled:
                    tracer.emit_timed("server/queue", trace_ctx, wait)
                live.append(entry)
        return live

    def _flush(self, batch: List[Tuple]) -> None:
        batch = self._shed_expired(batch)
        if not batch:
            return
        t0 = time.perf_counter()
        try:
            # Stacking is inside the try: mismatched row lengths (callers
            # bypassing the server's per-row validation) must reject this
            # batch's futures, not kill the worker task.
            with trace.span("flush"):
                rows = np.asarray(
                    [row for row, _, _, _, _ in batch], dtype=np.float64
                )
                raw_labels, extra = self.predict_rows(rows)
                labels = [int(v) for v in raw_labels]
            if len(labels) != len(batch):
                raise ServeError(
                    f"predict_rows returned {len(labels)} labels "
                    f"for {len(batch)} rows"
                )
        except Exception as exc:
            tracer = get_tracer()
            for _, fut, _, _, trace_ctx in batch:
                if not fut.done():
                    fut.set_exception(exc)
                if trace_ctx is not None and tracer.enabled:
                    tracer.emit_timed(
                        "server/model_call", trace_ctx,
                        time.perf_counter() - t0, status="model_error",
                    )
            if self.stats is not None:
                self.stats.record_error()
            return
        service_s = time.perf_counter() - t0
        # Resolve futures before stats bookkeeping: a stats failure must
        # never strand a batch that was already labeled successfully.
        for (_, fut, _, _, _), label in zip(batch, labels):
            if not fut.done():
                fut.set_result((label, extra))
        self._emit_model_spans(batch, service_s)
        if self.stats is not None:
            version = getattr(extra, "version", -1)
            self.stats.record_batch(len(batch), service_s, version)

    def _emit_model_spans(self, batch: List[Tuple], service_s: float) -> None:
        """One ``server/model_call`` span per traced row of the flush.

        Every traced co-traveler shares the flush's service time and its
        batch/cache attributes — which is exactly the point: the trace
        shows a request's latency being amortized over the batch it rode
        in. A flush fully served from the label cache renames the hop
        ``server/cache_hit`` so cache efficacy is visible per trace.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        traced = [ctx for _, _, _, _, ctx in batch if ctx is not None]
        if not traced:
            return
        attrs: Dict[str, Any] = {"batch_size": len(batch)}
        name = "server/model_call"
        if self.flush_info is not None:
            try:
                info = dict(self.flush_info() or {})
            except Exception:  # introspection must never fail a flush
                info = {}
            attrs.update(info)
            if info.get("unique_misses") == 0:
                name = "server/cache_hit"
        for ctx in traced:
            tracer.emit_timed(name, ctx, service_s, attrs=attrs)

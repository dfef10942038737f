"""Online model serving for fitted KeyBin2 models.

A fitted :class:`~repro.core.model.KeyBin2Model` is a few-KB artifact
that labels points by key → cell lookup without touching training data —
cheap enough to serve online. This subpackage turns that property into a
deployable service:

registry    versioned in-process model registry with atomic hot-swap
batcher     micro-batching queue coalescing single-point predicts
admission   token-bucket admission control, deadlines, circuit breaker
cache       LRU cell-code → label cache (version-keyed)
server      stdlib-only asyncio TCP/JSON server + inference pipeline, on
            LineServer: the line-protocol core the fleet router shares
client      blocking and asyncio clients for the wire protocol
loadgen     closed/open-loop load generator + per-outcome report
stats       serving metrics (throughput, batch histogram, hit rate)

Quickstart::

    from repro.serve import ModelRegistry, serve_in_thread, ServeClient

    registry = ModelRegistry()
    registry.publish(model)                      # or skb.refresh(publish_to=registry)
    with serve_in_thread(registry) as handle:
        with ServeClient(*handle.address) as client:
            print(client.predict(x[0]).label)

or from the command line: ``python -m repro serve --model model.json``.
"""

from __future__ import annotations

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    CircuitBreaker,
    resolve_deadline,
)
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import LabelCache
from repro.serve.client import (
    AsyncServeClient,
    PredictResult,
    ServeClient,
    async_probe,
    probe,
)
from repro.serve.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.server import (
    InferenceService,
    ModelServer,
    ServerHandle,
    serve_in_thread,
)
from repro.serve.stats import ServeStats

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "CircuitBreaker",
    "resolve_deadline",
    "BatchPolicy",
    "MicroBatcher",
    "LabelCache",
    "AsyncServeClient",
    "PredictResult",
    "ServeClient",
    "async_probe",
    "probe",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "ModelRecord",
    "ModelRegistry",
    "InferenceService",
    "ModelServer",
    "ServerHandle",
    "serve_in_thread",
    "ServeStats",
]

"""S3: ModelRegistry rollback()/subscribe() under concurrent publish.

The registry is the consistency anchor of the whole serving stack — the
router's staged rollout and every replica's hot swap lean on three
properties checked here under real thread contention:

* version numbers are strictly monotonic and unique, even when
  publishers and rollbacks interleave;
* ``current()`` is never torn — readers always see a fully formed
  record whose fingerprint matches its model;
* a raising subscriber cannot wedge publication (the swap lands, other
  subscribers still run, the error is counted).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServeError
from repro.serve import ModelRegistry


@pytest.fixture
def two_models(served_model, alt_model):
    return served_model, alt_model


def test_concurrent_publish_versions_unique_and_monotonic(two_models):
    registry = ModelRegistry()
    model_a, model_b = two_models
    per_thread_versions = [[] for _ in range(6)]
    start = threading.Barrier(6)

    def publisher(idx):
        start.wait()
        model = model_a if idx % 2 else model_b
        for _ in range(20):
            per_thread_versions[idx].append(
                registry.publish(model, tag=f"t{idx}")
            )

    threads = [threading.Thread(target=publisher, args=(i,))
               for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_versions = sorted(v for vs in per_thread_versions for v in vs)
    assert all_versions == list(range(1, 121))  # unique, gap-free
    # Each thread saw its own publishes in increasing order.
    assert all(vs == sorted(vs) for vs in per_thread_versions)
    assert registry.current().version == 120


def test_current_reads_never_torn_under_publish(two_models):
    registry = ModelRegistry()
    model_a, model_b = two_models
    fp = {model_a.fingerprint(): model_a, model_b.fingerprint(): model_b}
    registry.publish(model_a)
    stop = threading.Event()
    torn = []

    def reader():
        last_version = 0
        while not stop.is_set():
            record = registry.current()
            # A torn read would pair a record with a foreign fingerprint
            # or run versions backwards.
            if fp[record.fingerprint] is not record.model:
                torn.append(record)
            if record.version < last_version:
                torn.append(record)
            last_version = record.version

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for t in readers:
        t.start()
    for i in range(200):
        registry.publish(model_a if i % 2 else model_b)
    stop.set()
    for t in readers:
        t.join()
    assert torn == []


def test_rollback_races_publish_without_corruption(two_models):
    registry = ModelRegistry()
    model_a, model_b = two_models
    registry.publish(model_a)
    registry.publish(model_b)
    start = threading.Barrier(4)
    errors = []

    def publisher():
        start.wait()
        for i in range(30):
            registry.publish(model_a if i % 2 else model_b)

    def roller():
        start.wait()
        for _ in range(30):
            try:
                registry.rollback()
            except ServeError as exc:  # pragma: no cover - timing dependent
                errors.append(exc)

    threads = [threading.Thread(target=publisher) for _ in range(2)]
    threads += [threading.Thread(target=roller) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # 2 seed publishes + 60 publishes + up to 60 rollback republishes.
    final = registry.current()
    assert not errors
    # Rollback republishes with a fresh, still-monotonic version: the
    # retained history never contains the current version twice.
    versions = [r.version for r in registry._history] + [final.version]
    assert len(versions) == len(set(versions))
    # And the version counter kept moving forward through all the races.
    assert registry.publish(model_a) == final.version + 1


def test_raising_subscriber_cannot_wedge_publication(two_models):
    registry = ModelRegistry()
    model_a, _ = two_models
    seen = []

    def bad_subscriber(record):
        raise RuntimeError("subscriber bug")

    def good_subscriber(record):
        seen.append(record.version)

    registry.subscribe(bad_subscriber)
    registry.subscribe(good_subscriber)
    v1 = registry.publish(model_a)
    v2 = registry.publish(model_a)
    assert (v1, v2) == (1, 2)
    assert seen == [1, 2]  # the later subscriber still ran, in order
    assert registry.subscriber_errors == 2
    assert registry.current().version == 2


def test_raising_subscriber_under_concurrent_publish(two_models):
    registry = ModelRegistry()
    model_a, model_b = two_models

    def flaky(record):
        if record.version % 3 == 0:
            raise ValueError("every third publish")

    registry.subscribe(flaky)
    threads = [
        threading.Thread(
            target=lambda m: [registry.publish(m) for _ in range(15)],
            args=(model_a if i % 2 else model_b,),
        )
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert registry.current().version == 60
    assert registry.subscriber_errors == 60 // 3

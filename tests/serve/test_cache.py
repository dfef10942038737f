"""Tests for the LRU cell-code → label cache."""

import threading

import pytest

from repro.serve import cache as cache_module
from repro.serve.cache import LabelCache


@pytest.fixture
def sized(monkeypatch):
    """Build a cache holding ``size`` entries."""
    def build(size):
        monkeypatch.setattr(cache_module, "LABEL_CACHE_SIZE", size)
        return LabelCache()
    return build


class TestLabelCache:
    def test_miss_then_hit(self, sized):
        cache = sized(4)
        assert cache.get(1, 42) is None
        cache.put(1, 42, 3)
        assert cache.get(1, 42) == 3
        assert cache.hits == 1 and cache.misses == 1

    def test_noise_label_is_cacheable(self, sized):
        """-1 (unseen cell) must round-trip; None is the only miss signal."""
        cache = sized(4)
        cache.put(1, 7, -1)
        assert cache.get(1, 7) == -1

    def test_version_isolates_entries(self, sized):
        cache = sized(8)
        cache.put(1, 42, 3)
        assert cache.get(2, 42) is None  # new model version: cold
        cache.put(2, 42, 5)
        assert cache.get(1, 42) == 3
        assert cache.get(2, 42) == 5

    def test_lru_eviction_order(self, sized):
        cache = sized(2)
        cache.put(1, 1, 10)
        cache.put(1, 2, 20)
        cache.get(1, 1)        # touch 1 → 2 becomes LRU
        cache.put(1, 3, 30)    # evicts 2
        assert cache.get(1, 2) is None
        assert cache.get(1, 1) == 10
        assert cache.get(1, 3) == 30
        assert cache.evictions == 1

    def test_capacity_bound_holds(self, sized):
        cache = sized(16)
        for code in range(100):
            cache.put(1, code, code % 5)
        assert len(cache) == 16

    def test_zero_size_disables(self, sized):
        cache = sized(0)
        cache.put(1, 42, 3)
        assert cache.get(1, 42) is None
        assert len(cache) == 0

    def test_hit_rate_and_snapshot(self, sized):
        cache = sized(4)
        cache.put(1, 1, 0)
        cache.get(1, 1)
        cache.get(1, 2)
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert snap["size"] == 1

    def test_clear(self, sized):
        cache = sized(4)
        cache.put(1, 1, 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(1, 1) is None

    def test_snapshot_is_internally_consistent_under_load(self, sized):
        """A concurrent scraper must never observe a torn view: inside any
        snapshot, hit_rate must be exactly hits/(hits+misses) of the *same*
        snapshot. The old code read the counters outside the lock, so a
        half-applied get() could leak into the scrape."""
        cache = sized(64)
        stop = threading.Event()

        def serve_loop():
            code = 0
            while not stop.is_set():
                code = (code + 1) % 128
                if cache.get(1, code) is None:
                    cache.put(1, code, code)

        workers = [threading.Thread(target=serve_loop) for _ in range(4)]
        for w in workers:
            w.start()
        try:
            for _ in range(300):
                snap = cache.snapshot()
                total = snap["hits"] + snap["misses"]
                expected = round(snap["hits"] / total, 4) if total else 0.0
                assert snap["hit_rate"] == expected
                assert snap["size"] <= snap["maxsize"]
        finally:
            stop.set()
            for w in workers:
                w.join()

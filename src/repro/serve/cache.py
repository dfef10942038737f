"""LRU cell-code → label cache for the serving hot path.

KeyBin2 inference is a pure function of the grid cell a point lands in:
every point with the same cell code gets the same label. Online traffic
is heavily repetitive in cell space (real queries cluster — that is the
whole premise), so a small LRU over ``(model version, cell code)`` pairs
short-circuits the cluster-table lookup for the common case and, more
importantly, gives operators a direct *cell-locality* signal: the hit
rate reported by ``stats`` tells you how concentrated live traffic is.

Keys include the model version so a registry hot-swap needs no
invalidation handshake — entries from the old version simply age out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple


__all__ = ["LabelCache"]

#: Entries a cache holds before evicting the least recently used.
LABEL_CACHE_SIZE = 65536


class LabelCache:
    """Bounded LRU mapping ``(version, cell_code) -> label``.

    Thread-safe: the serving loop and a stats scraper may touch it
    concurrently. It holds :data:`LABEL_CACHE_SIZE` entries.
    """

    def __init__(self):
        self.maxsize = LABEL_CACHE_SIZE
        self._data: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, version: int, code: int) -> Optional[int]:
        """Cached label, or ``None`` (labels themselves are never None)."""
        key = (version, code)
        with self._lock:
            try:
                label = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return label

    def put(self, version: int, code: int, label: int) -> None:
        key = (version, code)
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = label
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def _hit_rate_locked(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        with self._lock:
            return self._hit_rate_locked()

    def snapshot(self) -> Dict[str, Any]:
        # All counters read under one lock acquisition so a scraper never
        # observes a torn view (e.g. a hit counted but not yet in hit_rate).
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self._hit_rate_locked(), 4),
            }

    def export_metrics(self, registry) -> None:
        """Publish one consistent snapshot as ``serve_cache_*`` gauges.

        The cache keeps its own lock-guarded counters (the hot path must
        not pay a registry hop per get); exposition surfaces call this at
        scrape time, so the gauges are as fresh as the scrape and still
        un-torn (they all come from one :meth:`snapshot`).
        """
        snap = self.snapshot()
        for key in ("size", "maxsize", "hits", "misses", "evictions", "hit_rate"):
            registry.gauge(
                f"serve_cache_{key}", f"Label cache {key} at last scrape."
            ).set(snap[key])

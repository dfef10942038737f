"""Per-rank communication accounting.

Every :class:`~repro.comm.base.Communicator` owns a :class:`TrafficStats`
and records each point-to-point payload it sends and receives. Collectives
are built on point-to-point sends, so their cost shows up automatically.

Payload size is measured as the numpy buffer size when the payload is an
ndarray (the hot path in KeyBin2 — histograms and partition tables), or the
pickled length otherwise (small control messages only).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

__all__ = ["payload_nbytes", "TrafficStats"]


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a payload in bytes."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if obj is None:
        return 0
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable control object
        return 0


@dataclass
class TrafficStats:
    """Counters for messages and bytes exchanged by one rank."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    by_peer_sent: Dict[int, int] = field(default_factory=dict, init=False)
    by_peer_received: Dict[int, int] = field(default_factory=dict, init=False)

    def record_send(self, peer: int, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)
        self.by_peer_sent[peer] = self.by_peer_sent.get(peer, 0) + int(nbytes)

    def record_recv(self, peer: int, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += int(nbytes)
        self.by_peer_received[peer] = self.by_peer_received.get(peer, 0) + int(nbytes)

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.by_peer_sent.clear()
        self.by_peer_received.clear()

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict summary suitable for gathering across ranks."""
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }

    def __add__(self, other: "TrafficStats") -> "TrafficStats":
        merged = TrafficStats(
            messages_sent=self.messages_sent + other.messages_sent,
            messages_received=self.messages_received + other.messages_received,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
        )
        for src in (self.by_peer_sent, other.by_peer_sent):
            for peer, nbytes in src.items():
                merged.by_peer_sent[peer] = merged.by_peer_sent.get(peer, 0) + nbytes
        for src in (self.by_peer_received, other.by_peer_received):
            for peer, nbytes in src.items():
                merged.by_peer_received[peer] = (
                    merged.by_peer_received.get(peer, 0) + nbytes
                )
        return merged

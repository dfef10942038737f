"""Versioned in-process model registry with atomic hot-swap.

The registry is the serving layer's single source of truth for "which
model answers requests right now". Publishing a new model is atomic with
respect to readers: :meth:`ModelRegistry.current` returns one immutable
:class:`ModelRecord`, so a request batch that grabbed record *v* keeps
labeling with *v* even if *v+1* lands mid-batch — every response is
labeled by exactly one version, old or new, never a mixture.

Writers (a :meth:`StreamingKeyBin2.refresh` consolidation thread, a
``reload`` RPC re-reading an atomically-saved model file) serialize on an
internal lock; readers never block.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.model import KeyBin2Model
from repro.errors import ServeError, ValidationError

__all__ = ["ModelRecord", "ModelRegistry"]

#: Superseded records a registry keeps for ``rollback``.
MAX_HISTORY = 8


@dataclass(frozen=True)
class ModelRecord:
    """One published model version (immutable snapshot).

    Attributes
    ----------
    version:
        Monotonically increasing integer, starting at 1.
    model:
        The fitted :class:`KeyBin2Model`. Treated as read-only once
        published.
    fingerprint:
        Content hash of the model's predictive state (see
        :meth:`KeyBin2Model.fingerprint`).
    published_at:
        Wall-clock publish time (``time.time()``).
    tag:
        Optional human label ("nightly", "refresh-42", ...).
    """

    version: int
    model: KeyBin2Model
    fingerprint: str
    published_at: float
    tag: Optional[str] = None

    @property
    def n_features(self) -> int:
        """Raw input dimensionality this model expects from ``predict``."""
        m = self.model
        return (
            int(m.projection.shape[0]) if m.projection is not None
            else int(m.kept_dims.size)
        )

    def info(self) -> Dict[str, Any]:
        """JSON-friendly summary (what the ``model-info`` RPC returns)."""
        m = self.model
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "tag": self.tag,
            "published_at": self.published_at,
            "n_clusters": int(m.n_clusters),
            "n_features": self.n_features,
            "n_projected_dims": int(m.n_projected_dims),
            "depth": int(m.depth),
            "score": float(m.score),
            "n_points_fit": int(m.n_points_fit),
        }


class ModelRegistry:
    """Thread-safe versioned registry of :class:`KeyBin2Model` instances.

    The current record and the :data:`MAX_HISTORY` most recently
    superseded ones are retained (for ``rollback`` and debugging).

    Usage::

        reg = ModelRegistry()
        v1 = reg.publish(model)                  # -> 1
        rec = reg.current()                      # snapshot; never blocks
        skb.refresh(publish_to=reg)              # streaming hot-swap
    """

    def __init__(self):
        self.max_history = MAX_HISTORY
        self._lock = threading.Lock()
        self._current: Optional[ModelRecord] = None
        self._history: List[ModelRecord] = []
        self._next_version = 1
        self._subscribers: List[Callable[[ModelRecord], None]] = []
        self.swaps = 0
        self.subscriber_errors = 0

    # -- write side ----------------------------------------------------------

    def publish(self, model: KeyBin2Model, tag: Optional[str] = None) -> int:
        """Install ``model`` as the new current version; returns the version.

        The swap itself is a single reference assignment under the lock, so
        concurrent readers see either the old record or the new one in
        full — never a partially constructed state.
        """
        if not isinstance(model, KeyBin2Model):
            raise ValidationError(
                f"registry only serves KeyBin2Model, got {type(model).__name__}"
            )
        fingerprint = model.fingerprint()  # hash outside the lock; it is slow-ish
        with self._lock:
            record = ModelRecord(
                version=self._next_version,
                model=model,
                fingerprint=fingerprint,
                published_at=time.time(),
                tag=tag,
            )
            self._next_version += 1
            if self._current is not None:
                self._history.append(self._current)
                if len(self._history) > self.max_history:
                    del self._history[: len(self._history) - self.max_history]
                self.swaps += 1
            self._current = record
            subscribers = list(self._subscribers)
        for callback in subscribers:
            # A raising subscriber must not wedge publication: the swap
            # already happened (readers see the new record), the remaining
            # subscribers still deserve their notification, and the
            # publisher (a refresh thread, a reload RPC) must get its
            # version back. Failures are counted, not propagated.
            try:
                callback(record)
            except Exception:
                with self._lock:
                    self.subscriber_errors += 1
        return record.version

    def rollback(self, version: Optional[int] = None) -> int:
        """Republish a retained older version (default: the previous one).

        The rolled-back model gets a *new* version number — versions only
        move forward, which keeps "which model labeled this response"
        unambiguous in logs.
        """
        with self._lock:
            candidates = list(self._history)
        if not candidates:
            raise ServeError("no superseded versions retained; cannot roll back")
        if version is None:
            target = candidates[-1]
        else:
            matches = [r for r in candidates if r.version == version]
            if not matches:
                raise ServeError(
                    f"version {version} not in retained history "
                    f"{[r.version for r in candidates]}"
                )
            target = matches[0]
        return self.publish(target.model, tag=f"rollback-of-v{target.version}")

    def subscribe(self, callback: Callable[[ModelRecord], None]) -> None:
        """Register ``callback(record)`` to run after every publish."""
        with self._lock:
            self._subscribers.append(callback)

    # -- read side -----------------------------------------------------------

    def current(self) -> ModelRecord:
        """The live record. Raises :class:`ServeError` before first publish."""
        record = self._current  # single read; GIL-atomic reference load
        if record is None:
            raise ServeError("registry is empty; publish a model first")
        return record

    def current_or_none(self) -> Optional[ModelRecord]:
        return self._current

    def get(self, version: int) -> ModelRecord:
        """Look up a specific retained version (current or history)."""
        with self._lock:
            if self._current is not None and self._current.version == version:
                return self._current
            for record in reversed(self._history):
                if record.version == version:
                    return record
        raise ServeError(f"version {version} is not retained")

    def versions(self) -> List[int]:
        """Retained version numbers, oldest first (current last)."""
        with self._lock:
            out = [r.version for r in self._history]
            if self._current is not None:
                out.append(self._current.version)
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._history) + (self._current is not None)

    def info(self) -> Dict[str, Any]:
        """JSON-friendly registry summary."""
        record = self._current
        return {
            "current": None if record is None else record.info(),
            "retained_versions": self.versions(),
            "swaps": self.swaps,
        }

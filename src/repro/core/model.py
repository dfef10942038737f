"""The fitted KeyBin2 model.

Everything :class:`KeyBin2Model` holds is histogram-scale: the projection
matrix, the binning range, the cut set, and the occupied-cell table. None
of it references training points, which is why a fitted model is a few KB
and can be broadcast to data sites for in-situ labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.binning import SpaceRange
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.errors import NotFittedError, ValidationError
from repro.kernels.keys import bin_indices
from repro.util.validation import check_array_2d, check_finite

__all__ = ["KeyBin2Model"]


def _json_sanitize(value):
    """Coerce numpy scalars/arrays inside ``meta`` to plain python.

    ``meta`` is free-form bookkeeping and routinely picks up ``np.int64``
    counters or small arrays; the wire format must stay pure JSON so any
    consumer (including the serve layer's clients) can parse it.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    return value


@dataclass
class KeyBin2Model:
    """Fitted state of one accepted projection.

    Attributes
    ----------
    projection:
        (N × N_rp) projection matrix, or ``None`` for identity (data already
        low-dimensional).
    space:
        Binning range over the *projected* space (all projected dims).
    partition:
        Cut sets at the chosen depth, over the kept dimensions only.
    kept_dims:
        Boolean mask (length N_rp) of dimensions that survived collapsing.
    table:
        Occupied-cell table mapping cell codes to dense labels.
    score:
        Histogram-space CH score of this model.
    depth:
        Chosen bin-tree depth.
    n_points_fit:
        Training points behind the histograms (for window bookkeeping).
    """

    projection: Optional[np.ndarray]
    space: SpaceRange
    partition: PrimaryPartition
    kept_dims: np.ndarray
    table: GlobalClusterTable
    score: float
    depth: int
    n_points_fit: int
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kept_dims = np.asarray(self.kept_dims, dtype=bool).ravel()
        if self.kept_dims.sum() != self.partition.n_dims:
            raise ValidationError(
                "partition dimensionality must equal number of kept dims"
            )
        if self.space.n_dims != self.kept_dims.size:
            raise ValidationError(
                "space range must cover all projected dimensions"
            )

    @property
    def n_clusters(self) -> int:
        return self.table.n_clusters

    @property
    def n_projected_dims(self) -> int:
        return int(self.kept_dims.size)

    # -- inference -------------------------------------------------------------

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project raw points into the model's reduced space."""
        x = check_array_2d(x, "X")
        check_finite(x, "X")
        if self.projection is None:
            if x.shape[1] != self.kept_dims.size:
                raise ValidationError(
                    f"model expects {self.kept_dims.size} features, got {x.shape[1]}"
                )
            return x
        if x.shape[1] != self.projection.shape[0]:
            raise ValidationError(
                f"model expects {self.projection.shape[0]} features, got {x.shape[1]}"
            )
        return x @ self.projection

    def cell_codes_for(self, x: np.ndarray) -> np.ndarray:
        """Grid-cell code of every point (the key → cell mapping)."""
        projected = self.transform(x)
        kept = projected[:, self.kept_dims]
        kept_range_min = self.space.r_min[self.kept_dims]
        kept_range_max = self.space.r_max[self.kept_dims]
        bins = bin_indices(kept, kept_range_min, kept_range_max, self.partition.depth)
        intervals = self.partition.intervals_for(bins)
        return self.partition.cell_codes(intervals)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Cluster labels for new points; ``-1`` marks cells unseen in fit."""
        return self.table.lookup(self.cell_codes_for(x))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-python representation (json-serializable)."""
        return {
            "projection": None if self.projection is None else self.projection.tolist(),
            "r_min": self.space.r_min.tolist(),
            "r_max": self.space.r_max.tolist(),
            "depth": self.depth,
            "cuts": [c.tolist() for c in self.partition.cuts],
            "kept_dims": self.kept_dims.tolist(),
            "codes": self.table.codes.tolist(),
            "sizes": None if self.table.sizes is None else self.table.sizes.tolist(),
            # CH scores are legitimately ±inf for degenerate partitions
            # (single cluster, zero within-dispersion), but bare Infinity
            # tokens are not valid JSON — encode non-finite scores as the
            # strings float() itself parses back ("inf", "-inf", "nan").
            "score": self.score if np.isfinite(self.score) else repr(self.score),
            "n_points_fit": self.n_points_fit,
            "meta": _json_sanitize(dict(self.meta)),
        }

    def fingerprint(self) -> str:
        """Short content hash of the model's predictive state.

        Two models with the same fingerprint label every point identically;
        ``meta`` is excluded because it is bookkeeping, not behavior. The
        serve layer stamps responses with this so clients can tell exactly
        which model labeled them across hot-swaps.
        """
        import hashlib
        import json

        d = self.to_dict()
        d.pop("meta", None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def save(self, path) -> None:
        """Write the model as JSON (the broadcastable wire format).

        The write is atomic: the JSON goes to a temporary file in the same
        directory, then ``os.replace`` swaps it in, so a server hot-reloading
        from disk can never observe a torn/partial model file. Non-finite
        floats are rejected up front (``allow_nan=False``) — bare ``NaN`` /
        ``Infinity`` tokens are not valid JSON and would poison consumers.
        """
        import json
        import os
        import tempfile
        from pathlib import Path

        try:
            text = json.dumps(self.to_dict(), allow_nan=False)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"model is not JSON-serializable (NaN/Infinity or foreign "
                f"type in state): {exc}"
            ) from exc
        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path) -> "KeyBin2Model":
        """Read a model written by :meth:`save`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "KeyBin2Model":
        projection = None if d["projection"] is None else np.asarray(d["projection"])
        sizes = None if d.get("sizes") is None else np.asarray(d["sizes"], dtype=np.int64)
        return cls(
            projection=projection,
            space=SpaceRange(np.asarray(d["r_min"]), np.asarray(d["r_max"])),
            partition=PrimaryPartition(
                int(d["depth"]), [np.asarray(c, dtype=np.int64) for c in d["cuts"]]
            ),
            kept_dims=np.asarray(d["kept_dims"], dtype=bool),
            table=GlobalClusterTable(np.asarray(d["codes"], dtype=np.int64), sizes),
            score=float(d["score"]),
            depth=int(d["depth"]),
            n_points_fit=int(d["n_points_fit"]),
            meta=dict(d.get("meta", {})),
        )

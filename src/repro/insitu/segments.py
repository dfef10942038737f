"""Metastable segment extraction.

Turns per-frame (stable, label) decisions into the rectangles of paper
Figure 4: maximal runs of stable frames agreeing on a label, with short
flickers bridged and sub-minimum runs discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = ["Segment", "extract_segments", "segment_frame_labels"]


#: Runs shorter than this are dropped (noise, not metastability).
MIN_LENGTH = 20
#: Unstable gaps up to this length *inside* a run of the same label are
#: bridged (momentary score ties during a dwell).
BRIDGE = 5

@dataclass(frozen=True)
class Segment:
    """A metastable segment: frames ``[start, stop)`` assigned to ``label``."""

    start: int
    stop: int
    label: int

    @property
    def length(self) -> int:
        return self.stop - self.start

    def overlaps(self, other: "Segment") -> bool:
        return self.start < other.stop and other.start < self.stop


def extract_segments(stable: np.ndarray, labels: np.ndarray) -> List[Segment]:
    """Maximal stable same-label runs of two per-frame decision arrays
    (equal length): runs shorter than :data:`MIN_LENGTH` are dropped, and
    unstable gaps up to :data:`BRIDGE` frames inside a run are bridged.
    """
    stable = np.asarray(stable, dtype=bool).ravel()
    labels = np.asarray(labels).ravel()
    if stable.shape != labels.shape:
        raise ValidationError("stable and labels must have the same length")
    min_length, bridge = MIN_LENGTH, BRIDGE
    n = stable.size
    segments: List[Segment] = []
    i = 0
    while i < n:
        if not stable[i]:
            i += 1
            continue
        label = int(labels[i])
        start = i
        j = i + 1
        gap = 0
        end = i + 1  # exclusive end of the last *stable* matching frame
        while j < n:
            if stable[j] and int(labels[j]) == label:
                end = j + 1
                gap = 0
            elif not stable[j] and gap < bridge:
                gap += 1
            else:
                break
            j += 1
        if end - start >= min_length:
            segments.append(Segment(start, end, label))
        i = max(end, i + 1)
    return segments


def segment_frame_labels(segments: List[Segment], n_frames: int) -> np.ndarray:
    """Per-frame label from a segment list; ``-1`` outside all segments."""
    if n_frames < 0:
        raise ValidationError("n_frames must be non-negative")
    out = np.full(n_frames, -1, dtype=np.int64)
    for seg in segments:
        if seg.start < 0 or seg.stop > n_frames:
            raise ValidationError(f"segment {seg} out of range for {n_frames} frames")
        out[seg.start : seg.stop] = seg.label
    return out

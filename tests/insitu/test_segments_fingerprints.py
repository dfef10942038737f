"""Tests for segment extraction and cluster fingerprints."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.insitu.fingerprint import (
    fingerprint_change_points,
    fingerprint_similarity,
    window_fingerprints,
)
from repro.insitu import fingerprint, segments
from repro.insitu.segments import Segment, extract_segments, segment_frame_labels


@pytest.fixture
def window(monkeypatch):
    def set_window(frames):
        monkeypatch.setattr(fingerprint, "WINDOW", frames)
    return set_window


@pytest.fixture
def min_length(monkeypatch):
    def set_min_length(frames):
        monkeypatch.setattr(segments, "MIN_LENGTH", frames)
    return set_min_length


class TestExtractSegments:
    def test_single_clean_run(self, min_length):
        stable = np.ones(100, dtype=bool)
        labels = np.zeros(100, dtype=int)
        min_length(10)
        segs = extract_segments(stable, labels)
        assert len(segs) == 1
        assert (segs[0].start, segs[0].stop, segs[0].label) == (0, 100, 0)

    def test_two_runs_split_by_label_change(self, min_length):
        stable = np.ones(100, dtype=bool)
        labels = np.concatenate([np.zeros(50, int), np.ones(50, int)])
        min_length(10)
        segs = extract_segments(stable, labels)
        assert [(s.start, s.stop, s.label) for s in segs] == [
            (0, 50, 0), (50, 100, 1)
        ]

    def test_short_run_dropped(self, min_length):
        stable = np.ones(30, dtype=bool)
        labels = np.zeros(30, int)
        labels[10:15] = 1  # 5-frame flicker
        min_length(8)
        segs = extract_segments(stable, labels)
        assert all(s.label == 0 for s in segs)

    def test_bridging_small_gaps(self, min_length):
        stable = np.ones(60, dtype=bool)
        stable[30:33] = False  # 3-frame unstable blip
        labels = np.zeros(60, int)
        min_length(10)
        segs = extract_segments(stable, labels)
        assert len(segs) == 1
        assert segs[0].length == 60

    def test_gap_beyond_bridge_splits(self, min_length):
        stable = np.ones(80, dtype=bool)
        stable[35:50] = False
        labels = np.zeros(80, int)
        min_length(10)
        segs = extract_segments(stable, labels)
        assert len(segs) == 2

    def test_no_stable_frames(self):
        segs = extract_segments(np.zeros(50, bool), np.zeros(50, int))
        assert segs == []

    def test_invalid(self):
        with pytest.raises(ValidationError):
            extract_segments(np.ones(5, bool), np.zeros(4, int))


class TestSegmentFrameLabels:
    def test_roundtrip(self):
        segs = [Segment(0, 10, 3), Segment(20, 30, 5)]
        labels = segment_frame_labels(segs, 35)
        assert labels[5] == 3
        assert labels[25] == 5
        assert labels[15] == -1
        assert labels[34] == -1

    def test_out_of_range_segment(self):
        with pytest.raises(ValidationError):
            segment_frame_labels([Segment(0, 50, 1)], 40)


class TestFingerprints:
    def test_stable_labels_stable_fingerprint(self, window):
        labels = np.zeros(100, dtype=int)
        window(10)
        prints = window_fingerprints(labels)
        assert all(fp == frozenset({0}) for fp in prints[10:])

    def test_noise_excluded(self, window):
        labels = np.full(50, -1, dtype=int)
        window(10)
        prints = window_fingerprints(labels)
        assert all(fp == frozenset() for fp in prints)

    def test_min_support_filters_rare(self, window):
        labels = np.zeros(40, dtype=int)
        labels[20] = 7  # appears once
        window(10)
        prints = window_fingerprints(labels)
        assert all(7 not in fp for fp in prints)

    def test_transition_changes_fingerprint(self, window):
        labels = np.concatenate([np.zeros(50, int), np.full(50, 5, int)])
        window(10)
        prints = window_fingerprints(labels)
        assert prints[20] == frozenset({0})
        assert prints[90] == frozenset({5})

    def test_similarity_bounds(self):
        assert fingerprint_similarity(frozenset(), frozenset()) == 1.0
        assert fingerprint_similarity(frozenset({1}), frozenset({2})) == 0.0
        assert fingerprint_similarity(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1 / 3)

    def test_change_points_detect_switch(self, window):
        labels = np.concatenate([np.zeros(100, int), np.full(100, 5, int)])
        window(20)
        prints = window_fingerprints(labels)
        changes = fingerprint_change_points(prints)
        assert changes.size >= 1
        assert 95 <= changes[0] <= 125

    def test_change_points_min_spacing(self, window, monkeypatch):
        labels = np.concatenate(
            [np.zeros(60, int), np.full(60, 1, int), np.full(60, 2, int)]
        )
        window(10)
        prints = window_fingerprints(labels)
        monkeypatch.setattr(fingerprint, "CHANGE_THRESHOLD", 0.5)
        monkeypatch.setattr(fingerprint, "MIN_SPACING", 40)
        changes = fingerprint_change_points(prints)
        assert np.all(np.diff(changes) >= 40)

    def test_no_change_no_points(self, window):
        window(10)
        prints = window_fingerprints(np.zeros(80, int))
        assert fingerprint_change_points(prints).size == 0

"""Rollout journal: WAL discipline, torn tails, rotation, recovery plans.

Pure journal tests — no fleet needed. Crash behavior is simulated by
writing exact byte sequences (torn tail) and via the deterministic
``crash_after`` hook; the end-to-end crash/recovery property lives in
``test_recovery.py``.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.fleet.journal as journal_mod
from repro.errors import InjectedFault, ServeError
from repro.fleet.journal import (
    JOURNAL_FILE,
    JournalError,
    RolloutJournal,
    plan_recovery,
)


def _journal(tmp_path, **kwargs):
    return RolloutJournal(str(tmp_path / "journal"), **kwargs)


@pytest.fixture
def rotate_at_8(monkeypatch):
    monkeypatch.setattr(journal_mod, "ROTATE_AT", 8)


def test_append_and_replay_round_trip(tmp_path):
    j = _journal(tmp_path)
    j.append("intent", path="m.json", tag="t1")
    j.set_artifact("m.json", "fp-new", version=2)
    j.append("complete", fingerprint="fp-new")
    records = j.records()
    assert [r["type"] for r in records] == ["intent", "artifact", "complete"]
    assert [r["seq"] for r in records] == [0, 1, 2]
    assert records[1]["fingerprint"] == "fp-new"
    # A fresh instance over the same directory resumes the sequence.
    j2 = _journal(tmp_path)
    rec = j2.append("intent", path="n.json")
    assert rec["seq"] == 3


def test_torn_final_line_is_dropped(tmp_path):
    j = _journal(tmp_path)
    j.append("intent", path="m.json")
    j.append("canary", replica="r0")
    with open(j.path, "ab") as fh:
        fh.write(b'{"seq": 2, "type": "canary_prom')  # crash mid-write
    assert [r["type"] for r in j.records()] == ["intent", "canary"]
    # Appending over a torn tail still yields a replayable journal: the
    # torn fragment stops replay, losing only records after the tear.
    j2 = _journal(tmp_path)
    assert len(j2.records()) == 2


def test_rotation_keeps_artifact_and_open_rollout(tmp_path, rotate_at_8):
    j = _journal(tmp_path)
    # A completed rollout's history plus a fresh open one.
    j.append("intent", path="a.json")
    j.append("staged", fingerprint="fp-a")
    j.set_artifact("a.json", "fp-a")
    j.append("complete", fingerprint="fp-a")
    j.append("intent", path="b.json")
    j.append("canary", replica="r0")
    j.rotate()
    kept = [r["type"] for r in j.records()]
    assert kept == ["artifact", "intent", "canary"]
    open_r = j.open_rollout()
    assert open_r is not None and open_r["path"] == "b.json"
    assert j.current_artifact()["fingerprint"] == "fp-a"
    # seq numbering is preserved through compaction.
    assert [r["seq"] for r in j.records()] == sorted(
        r["seq"] for r in j.records()
    )


def test_auto_rotation_past_rotate_at(tmp_path, rotate_at_8):
    j = _journal(tmp_path)
    for i in range(6):
        j.append("intent", path=f"m{i}.json")
        j.append("rolled_back", reason="test")
    # Far more than 8 records appended; compaction kept the file small.
    assert len(j.records()) <= 8


def test_open_rollout_states(tmp_path):
    j = _journal(tmp_path)
    assert j.open_rollout() is None
    j.append("intent", path="m.json", tag="t")
    pre = j.open_rollout()
    assert pre["staged"] is False and pre["fingerprint"] is None
    j.append("canary_promoted", replica="r0", version=2, fingerprint="fp-n")
    assert j.open_rollout()["fingerprint"] == "fp-n"
    j.append("staged", fingerprint="fp-n")
    committed = j.open_rollout()
    assert committed["staged"] is True and committed["fingerprint"] == "fp-n"
    j.append("complete", fingerprint="fp-n")
    assert j.open_rollout() is None


def test_crash_after_hook_is_deterministic(tmp_path):
    j = _journal(tmp_path, crash_after=2)
    j.append("intent", path="m.json")
    j.append("canary", replica="r0")
    with pytest.raises(InjectedFault):
        j.append("canary_promoted", replica="r0", fingerprint="fp")
    # Exactly crash_after records are on disk; the third never committed.
    assert len(j.records()) == 2
    # A recovery instance (no crash hook) sees the same two records.
    assert len(_journal(tmp_path).records()) == 2


def test_journal_error_on_unwritable_directory(tmp_path):
    target = tmp_path / "journal"
    target.mkdir()
    os.mkdir(target / JOURNAL_FILE)  # a directory where the file should be
    with pytest.raises(JournalError):
        RolloutJournal(str(target))


def test_validation():
    assert issubclass(JournalError, ServeError)
    assert JournalError.code == "journal_failed"


# -- plan_recovery (pure decision logic) -------------------------------------


def _records(*types_and_fields):
    return [{"seq": i, "at": 0.0, "type": t, **f}
            for i, (t, f) in enumerate(types_and_fields)]


BASELINE = ("artifact", {"path": "old.json", "fingerprint": "fp-old"})


def test_plan_noop_when_everyone_serves_baseline():
    plan = plan_recovery(_records(BASELINE),
                         {"r0": "fp-old", "r1": "fp-old"})
    assert plan.action == "noop" and not plan.stale


def test_plan_reconciles_strays_without_open_rollout():
    plan = plan_recovery(
        _records(BASELINE), {"r0": "fp-old", "r1": "fp-stray", "r2": None}
    )
    assert plan.action == "reconcile"
    assert plan.target_fingerprint == "fp-old"
    assert plan.stale == ["r1"] and plan.unreachable == ["r2"]


def test_plan_rolls_forward_past_commit_point():
    plan = plan_recovery(
        _records(
            BASELINE,
            ("intent", {"path": "new.json"}),
            ("canary", {"replica": "r0"}),
            ("canary_promoted", {"replica": "r0", "fingerprint": "fp-new"}),
            ("staged", {"fingerprint": "fp-new"}),
            ("promote", {"replica": "r1"}),
        ),
        {"r0": "fp-new", "r1": "fp-new", "r2": "fp-old"},
    )
    assert plan.action == "roll_forward"
    assert plan.target_path == "new.json"
    assert plan.target_fingerprint == "fp-new"
    assert plan.stale == ["r2"]


def test_plan_rolls_back_before_commit_point():
    plan = plan_recovery(
        _records(
            BASELINE,
            ("intent", {"path": "new.json"}),
            ("canary", {"replica": "r0"}),
            ("canary_promoted", {"replica": "r0", "fingerprint": "fp-new"}),
        ),
        {"r0": "fp-new", "r1": "fp-old", "r2": "fp-old"},
    )
    assert plan.action == "roll_back"
    assert plan.target_fingerprint == "fp-old"
    assert plan.stale == ["r0"]


def test_plan_refuses_uncommitted_rollout_without_baseline():
    with pytest.raises(JournalError, match="no baseline"):
        plan_recovery(
            _records(("intent", {"path": "new.json"})), {"r0": "fp-x"}
        )


def test_plan_terminal_record_closes_rollout():
    plan = plan_recovery(
        _records(
            BASELINE,
            ("intent", {"path": "new.json"}),
            ("rolled_back", {"reason": "canary_rejected"}),
        ),
        {"r0": "fp-old"},
    )
    assert plan.action == "noop"


def test_records_are_json_lines_on_disk(tmp_path):
    j = _journal(tmp_path)
    j.append("intent", path="m.json")
    with open(j.path, "rb") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["type"] == "intent" and "at" in parsed and "seq" in parsed

"""Crash-safe rollout journal and the recovery pass that replays it.

The staged rollout (:mod:`repro.fleet.rollout`) is a distributed state
machine driven from one process — the router. Before this journal, that
process was a single point of *amnesia*: a router killed mid-rollout left
the fleet mixed-version with no durable record of what was being rolled
out, from where, or how far it got; and a replica restarted afterwards
was pointed back at the original ``--model`` artifact, reintroducing the
exact split-brain the rollout's fingerprint-convergence check exists to
prevent.

:class:`RolloutJournal` is the durable control state the coordinator
model (*Communication-Optimal Distributed Clustering*, PAPERS.md) says a
router may centralize: an append-only JSONL file, one fsync'd record per
state transition, written **before** the action it describes (classic
write-ahead discipline). The record sequence of one rollout::

    intent            {path, tag}            nothing has happened yet
    canary            {replica}              before the canary reloads
    canary_promoted   {replica, version, fingerprint}
    staged            {fingerprint, error_rate, probes}   <-- COMMIT POINT
    promote           {replica}              before each later reload
    artifact          {path, fingerprint, version}   new source of truth
    complete          {fingerprint}          terminal
  | rolled_back       {reason}               terminal (any earlier abort)

The **commit point** is the ``staged`` record: it is only written after
the canary baked clean on live traffic, so the new artifact is known
good. Recovery (:func:`recover_fleet`) replays the journal, probes every
replica's served fingerprint, and drives the fleet to a single version:

* open rollout with a ``staged`` record → **roll forward** (finish it);
* open rollout without one → **roll back** to the last ``artifact``;
* no open rollout → **reconcile** any replica whose fingerprint strayed
  from the last ``artifact`` record (the fleet's source of truth).

Durability details: records are fsync'd on every append (control-plane
writes are rare — a rollout is a handful of records); replay tolerates a
torn final line (a crash mid-write loses at most the record being
written, never an earlier one); rotation compacts through a temp file +
``os.replace`` + directory fsync so a crash during rotation leaves either
the old file or the new one, never a mix.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import InjectedFault, ServeError
from repro.obs import default_registry

__all__ = [
    "JournalError",
    "RolloutJournal",
    "RecoveryPlan",
    "plan_recovery",
    "reconcile_replica",
    "recover_fleet",
]

#: Journal file name inside the journal directory.
JOURNAL_FILE = "rollout.journal.jsonl"
#: Records past which an append compacts the journal.
ROTATE_AT = 4096

#: Record types that open / close a rollout during replay.
_OPENING = "intent"
_TERMINAL = frozenset({"complete", "rolled_back"})


class JournalError(ServeError):
    """The journal could not be written or replayed coherently."""

    code = "journal_failed"


class RolloutJournal:
    """Append-only, fsync'd, atomically-rotated JSONL journal.

    Parameters
    ----------
    directory:
        Directory holding the journal (created if missing). One journal
        per fleet; the file inside is :data:`JOURNAL_FILE`.
    crash_after:
        Fault-injection hook for crash-recovery tests: after this many
        successful appends *through this instance*, the next append
        raises :class:`~repro.errors.InjectedFault` before writing — the
        journal then holds exactly ``crash_after`` records from this
        instance, simulating a driver killed at that record boundary.

    An append past :data:`ROTATE_AT` records compacts the file: it keeps
    the last ``artifact`` record and any open rollout's records —
    everything recovery could ever need — and drops completed history.
    """

    def __init__(self, directory: str, crash_after: Optional[int] = None):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, JOURNAL_FILE)
        self.rotate_at = ROTATE_AT
        self.crash_after = crash_after
        self._appended = 0  # appends through THIS instance (crash hook)
        os.makedirs(self.directory, exist_ok=True)
        existing = self.records()
        self._seq = existing[-1]["seq"] + 1 if existing else 0
        self._n_records = len(existing)

    # -- writing -------------------------------------------------------------

    def append(self, type_: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record; returns it (with ``seq``/``at``).

        The record is on disk (written, flushed, fsync'd) before this
        returns — callers may take the action the record describes.
        """
        if self.crash_after is not None and self._appended >= self.crash_after:
            raise InjectedFault(
                f"journal crash injected before record {self._appended + 1} "
                f"(crash_after={self.crash_after})"
            )
        record = {"seq": self._seq, "at": time.time(), "type": str(type_),
                  **fields}
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            with open(self.path, "ab") as fh:
                fh.write(line.encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot append to rollout journal {self.path}: {exc}"
            ) from exc
        self._seq += 1
        self._appended += 1
        self._n_records += 1
        if self._n_records > self.rotate_at:
            self.rotate()
        return record

    def set_artifact(self, path: str, fingerprint: str,
                     version: Optional[int] = None) -> Dict[str, Any]:
        """Record the fleet's current artifact — the source of truth.

        Written at fleet bootstrap and after every completed rollout;
        restarted replicas reconcile to the *last* of these records.
        """
        return self.append("artifact", path=str(path),
                           fingerprint=str(fingerprint), version=version)

    def rotate(self) -> None:
        """Compact the journal atomically (temp file + rename + dir fsync).

        Keeps the last ``artifact`` record and, if a rollout is open, all
        of its records; completed-rollout history is dropped. Sequence
        numbers are preserved so replay order stays meaningful.
        """
        records = self.records()
        keep: List[Dict[str, Any]] = []
        artifact = _last_artifact(records)
        if artifact is not None:
            keep.append(artifact)
        open_r = _open_rollout(records)
        if open_r is not None:
            keep.extend(r for r in open_r["records"] if r is not artifact)
        keep.sort(key=lambda r: r["seq"])
        tmp = self.path + ".rotate.tmp"
        try:
            with open(tmp, "wb") as fh:
                for record in keep:
                    fh.write((json.dumps(record, sort_keys=True) + "\n")
                             .encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise JournalError(
                f"cannot rotate rollout journal {self.path}: {exc}"
            ) from exc
        self._n_records = len(keep)

    # -- replay --------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Replay the journal from disk, tolerating a torn final line.

        A crash mid-append can leave a partial last line; it is dropped
        (that record never committed). A torn or corrupt line anywhere
        *else* truncates replay at that point — everything before it is
        intact, which is what the fsync-per-record discipline guarantees.
        """
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise JournalError(
                f"cannot read rollout journal {self.path}: {exc}"
            ) from exc
        records: List[Dict[str, Any]] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: nothing after it committed
            if not isinstance(record, dict) or "type" not in record:
                break
            records.append(record)
        return records

    def current_artifact(self) -> Optional[Dict[str, Any]]:
        """The last ``artifact`` record — the fleet's source of truth."""
        return _last_artifact(self.records())

    def open_rollout(self) -> Optional[Dict[str, Any]]:
        """The in-flight rollout, or ``None`` if the last one terminated.

        Returns ``{"path", "tag", "staged", "fingerprint", "records"}``
        where ``staged`` says whether the commit point was journaled and
        ``fingerprint`` is the new artifact's fingerprint if known (from
        the ``staged`` or ``canary_promoted`` record).
        """
        return _open_rollout(self.records())


def _last_artifact(records: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    for record in reversed(records):
        if record["type"] == "artifact":
            return record
    return None


def _open_rollout(records: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    open_r: Optional[Dict[str, Any]] = None
    for record in records:
        type_ = record["type"]
        if type_ == _OPENING:
            open_r = {
                "path": record.get("path"),
                "tag": record.get("tag"),
                "staged": False,
                "fingerprint": None,
                "records": [record],
            }
        elif open_r is not None:
            if type_ in _TERMINAL:
                open_r = None
                continue
            open_r["records"].append(record)
            if type_ == "staged":
                open_r["staged"] = True
            if type_ in ("staged", "canary_promoted"):
                fp = record.get("fingerprint")
                if fp is not None:
                    open_r["fingerprint"] = fp
    return open_r


# -- recovery planning -------------------------------------------------------


@dataclass
class RecoveryPlan:
    """What a recovery pass decided to do, before doing it.

    ``action`` is one of ``noop`` (everyone already serves the target),
    ``reconcile`` (no open rollout, but strays exist), ``roll_forward``
    (open rollout past the commit point — finish it) or ``roll_back``
    (open rollout before the commit point — undo it). ``stale`` lists the
    replicas whose probed fingerprint differs from the target and must
    reload; ``unreachable`` the ones that could not be probed (the
    supervisor's restart reconcile catches those later).
    """

    action: str
    target_path: Optional[str]
    target_fingerprint: Optional[str]
    stale: List[str] = field(default_factory=list)
    unreachable: List[str] = field(default_factory=list)
    open_rollout: Optional[Dict[str, Any]] = None
    baseline: Optional[Dict[str, Any]] = None


def plan_recovery(records: Sequence[Dict[str, Any]],
                  probed: Dict[str, Optional[str]]) -> RecoveryPlan:
    """Pure recovery decision: journal replay + probed fingerprints → plan.

    ``probed`` maps replica id → served ``model-info`` fingerprint
    (``None`` for a replica that did not answer). Raises
    :class:`JournalError` when a rollback is required but the journal
    never recorded a baseline ``artifact`` — there is nothing safe to
    converge to and an operator must intervene.
    """
    baseline = _last_artifact(records)
    open_r = _open_rollout(records)
    if open_r is not None and open_r["staged"]:
        action = "roll_forward"
        target_path = open_r["path"]
        target_fp = open_r["fingerprint"]
    elif open_r is not None:
        if baseline is None:
            raise JournalError(
                "journal holds an uncommitted rollout but no baseline "
                "'artifact' record to roll back to; refusing to guess"
            )
        action = "roll_back"
        target_path = baseline["path"]
        target_fp = baseline["fingerprint"]
    else:
        if baseline is None:
            return RecoveryPlan("noop", None, None,
                                unreachable=[r for r, fp in probed.items()
                                             if fp is None])
        action = "reconcile"
        target_path = baseline["path"]
        target_fp = baseline["fingerprint"]
    stale = sorted(r for r, fp in probed.items()
                   if fp is not None and fp != target_fp)
    unreachable = sorted(r for r, fp in probed.items() if fp is None)
    if action == "reconcile" and not stale:
        action = "noop"
    return RecoveryPlan(action, target_path, target_fp, stale=stale,
                        unreachable=unreachable, open_rollout=open_r,
                        baseline=baseline)


# -- recovery driving --------------------------------------------------------


def reconcile_replica(host: str, port: int, path: str,
                      fingerprint: Optional[str],
                      timeout: float = 10.0) -> str:
    """Drive one replica to the journal's artifact; returns its fingerprint.

    Probe ``model-info``; if the served fingerprint already matches,
    done. Otherwise ``reload`` the artifact and verify the fingerprint
    landed. Raises :class:`~repro.errors.ServeError` when the replica
    cannot be driven to the target — callers must NOT readmit it.
    """
    from repro.serve.client import ServeClient

    with ServeClient(host, port, timeout=timeout) as client:
        served = str(client.model_info().get("fingerprint"))
        if fingerprint is not None and served == fingerprint:
            return served
        client.reload(path)
        served = str(client.model_info().get("fingerprint"))
    if fingerprint is not None and served != fingerprint:
        raise ServeError(
            f"replica {host}:{port} still serves fingerprint {served!r} "
            f"after reload of {path!r} (journal says {fingerprint!r})"
        )
    return served


def _probe_fingerprints(
    endpoints: Sequence[Tuple[str, str, int]], timeout: float
) -> Dict[str, Optional[str]]:
    from repro.errors import ConnectionLostError
    from repro.serve.client import ServeClient

    probed: Dict[str, Optional[str]] = {}
    for rid, host, port in endpoints:
        try:
            with ServeClient(host, port, timeout=timeout) as client:
                probed[rid] = str(client.model_info().get("fingerprint"))
        except (ConnectionLostError, ServeError, OSError):
            probed[rid] = None
    return probed


def recover_fleet(endpoints: Sequence[Tuple[str, str, int]],
                  journal: RolloutJournal,
                  timeout: float = 10.0) -> Dict[str, Any]:
    """Replay the journal and drive the fleet to one fingerprint.

    ``endpoints`` is ``[(replica_id, host, port), ...]`` — typically
    :meth:`~repro.fleet.replica.ReplicaSupervisor.endpoints`. The pass:

    1. probe every replica's served ``model-info`` fingerprint;
    2. :func:`plan_recovery` against the journal replay;
    3. apply: roll forward finishes an open rollout past the commit
       point (and falls back to a full roll-back if *any* replica cannot
       load the new artifact — partial forward progress would itself be
       split-brain); roll back / reconcile reload strays to the last
       ``artifact`` record;
    4. journal the terminal record so a second recovery is a no-op.

    Returns a summary dict (``action``, ``target_fingerprint``,
    ``reloaded``, ``unreachable``, ``converged``, ``fingerprints``).
    ``converged`` is true when every *reachable* replica ends on the
    target fingerprint.
    """
    probed = _probe_fingerprints(endpoints, timeout)
    plan = plan_recovery(journal.records(), probed)
    by_id = {rid: (host, port) for rid, host, port in endpoints}
    reg = default_registry()
    m_recover = reg.counter(
        "fleet_recoveries_total",
        "Journal recovery passes applied, by action (roll_forward / "
        "roll_back / reconcile / noop / roll_forward_failed).",
        ("action",),
    )

    def _drive(rids: Sequence[str], path: str,
               fingerprint: Optional[str]) -> Tuple[List[str], List[str]]:
        done: List[str] = []
        failed: List[str] = []
        for rid in rids:
            host, port = by_id[rid]
            try:
                reconcile_replica(host, port, path, fingerprint, timeout)
                done.append(rid)
            except ServeError:
                failed.append(rid)
        return done, failed

    reloaded: List[str] = []
    action = plan.action
    if plan.action == "roll_forward":
        done, failed = _drive(plan.stale, plan.target_path,
                              plan.target_fingerprint)
        reloaded += done
        if failed and plan.baseline is not None:
            # Partial forward progress is split-brain; undo everything.
            m_recover.labels(action="roll_forward_failed").inc()
            action = "roll_back"
            plan.target_path = plan.baseline["path"]
            plan.target_fingerprint = plan.baseline["fingerprint"]
            back = [rid for rid, fp in probed.items()
                    if fp is not None and fp != plan.target_fingerprint]
            back = sorted(set(back) | set(done))
            done, failed = _drive(back, plan.target_path,
                                  plan.target_fingerprint)
            reloaded = done
            journal.append("rolled_back", reason="recovery_roll_forward_failed",
                           failed=sorted(failed))
        elif failed:
            journal.append("rolled_back", reason="recovery_unresolved",
                           failed=sorted(failed))
        else:
            journal.set_artifact(plan.target_path, plan.target_fingerprint,
                                 version=None)
            journal.append("complete", fingerprint=plan.target_fingerprint,
                           recovered=True)
    elif plan.action == "roll_back":
        done, failed = _drive(plan.stale, plan.target_path,
                              plan.target_fingerprint)
        reloaded += done
        journal.append("rolled_back", reason="recovery_pre_commit",
                       failed=sorted(failed))
    elif plan.action == "reconcile":
        done, failed = _drive(plan.stale, plan.target_path,
                              plan.target_fingerprint)
        reloaded += done
    m_recover.labels(action=action).inc()

    final = _probe_fingerprints(endpoints, timeout)
    reachable = {fp for fp in final.values() if fp is not None}
    converged = (
        len(reachable) <= 1
        and (plan.target_fingerprint is None
             or reachable <= {plan.target_fingerprint})
    )
    return {
        "action": action,
        "target_path": plan.target_path,
        "target_fingerprint": plan.target_fingerprint,
        "reloaded": reloaded,
        "unreachable": sorted(r for r, fp in final.items() if fp is None),
        "converged": converged,
        "fingerprints": final,
    }

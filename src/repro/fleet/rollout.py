"""Staged fleet rollout: canary → percentage stages → full promotion.

A single :class:`~repro.serve.server.ModelServer` hot-swaps models
atomically via its registry; a *fleet* cannot — N replicas reload at N
different instants, and a bad artifact multiplied by N is an outage, not
a blip. The :class:`RolloutManager` turns the router's ``reload`` op into
a staged promotion:

1. **canary** — exactly one healthy replica reloads the new artifact.
   The manager then *bakes* it: it replays sampled live predict rows
   (old dimensionality — what production actually sends) against the
   canary and classifies the answers. Sheds and deadline misses are
   neutral (load, not model quality); validation and model errors count
   against the canary. An error rate above
   :data:`MAX_ERROR_RATE` triggers an automatic
   ``rollback`` on the canary and aborts the rollout — the other N−1
   replicas never saw the artifact.
2. **staged** — the remaining replicas promote in
   :data:`STAGES` fractions (50% then 100%).
   After each replica reloads, its ``model-info`` fingerprint must match
   the canary's — the same convergence check the consolidation layer
   uses — so a replica that silently loaded something else aborts the
   rollout instead of serving split-brain labels.
3. **complete** — every promoted fingerprint agrees, and the journal (if
   any) records the new artifact as the fleet's source of truth.

Any failure after the canary promotes rolls back *every* promoted
replica (canary included) and the rollout ends ``rolled_back`` — the
fleet converges to the old fingerprint, never a mix.

Zero downtime falls out of the existing server design: each replica's
reload runs off its event loop while in-flight predicts drain normally,
and the router keeps routing around whichever replica is mid-reload —
requests never queue behind the rollout.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConnectionLostError, ServeError
from repro.obs.reqtrace import get_tracer

__all__ = ["RolloutError", "RolloutManager"]

#: Cumulative fleet fractions promoted after the canary bakes; increasing
#: and ending at 1.0.
STAGES: Tuple[float, ...] = (0.5, 1.0)
#: Predict probes replayed against the canary during the bake.
CANARY_PROBES = 24
#: Canary error rate (errors / non-neutral probes) above which the rollout
#: rolls back automatically.
MAX_ERROR_RATE = 0.25

#: Rollout states, in gauge-value order (``fleet_rollout_state``).
ROLLOUT_STATES: Tuple[str, ...] = (
    "idle", "canary", "staged", "complete", "rolled_back"
)


class RolloutError(ServeError):
    """A rollout aborted (canary regression, divergence, reload failure)."""

    code = "rollout_failed"


class RolloutManager:
    """Drives staged rollouts over a :class:`~repro.fleet.router.FleetRouter`.

    One manager per router; the router serializes invocations under its
    admin lock, so at most one rollout runs at a time.
    """

    def __init__(self, router, journal=None):
        self.router = router
        self.journal = journal
        self.state = "idle"
        self.history: List[Dict[str, Any]] = []
        self._trace_parent = None  # rollout/run span while a rollout is live
        reg = router.registry
        self._m_state = reg.gauge(
            "fleet_rollout_state",
            "Rollout state machine position: "
            + ", ".join(f"{i}={s}" for i, s in enumerate(ROLLOUT_STATES)),
        )
        self._m_rollouts = reg.counter(
            "fleet_rollouts_total",
            "Completed rollout attempts, by outcome (complete / "
            "canary_rejected / aborted).",
            ("outcome",),
        )

    def _append_history(self, entry: Dict[str, Any]) -> None:
        """The one place history grows — every append is trim-bounded.

        ``rollback_failed`` entries used to bypass the trim by appending
        directly, so a long-lived router with a flapping replica grew
        without bound.
        """
        self.history.append(entry)
        del self.history[:-50]  # bounded memory on long-lived routers

    def _set_state(self, state: str, **detail: Any) -> None:
        self.state = state
        self._m_state.set(ROLLOUT_STATES.index(state))
        self._append_history({"at": time.time(), "state": state, **detail})
        # Stage transitions are rare and operationally load-bearing, so
        # they export as always-sampled trace events linked under the
        # rollout/run span (one trace per rollout in obs-trace output).
        get_tracer().event(
            f"rollout/{state}", parent=self._trace_parent, attrs=detail
        )

    def _journal(self, type_: str, **fields: Any) -> None:
        """Write-ahead journal append (no-op without a journal).

        Called *before* the action the record describes; a failed append
        (:class:`~repro.fleet.journal.JournalError`, a ``ServeError``)
        aborts the rollout — acting without a durable record would make
        a later crash unrecoverable. Synchronous fsync'd IO on the event
        loop is fine here: a rollout is a handful of control-plane
        records, not a request-path write.
        """
        if self.journal is not None:
            self.journal.append(type_, **fields)

    # -- the rollout ---------------------------------------------------------

    async def run(self, path: str, tag: Optional[str] = None) -> Dict[str, Any]:
        """Roll ``path`` out across the fleet; returns the promotion summary.

        Raises :class:`RolloutError` on any abort — in which case every
        replica that promoted has been rolled back to the old artifact.
        """
        # Each rollout is its own (force-sampled) trace; the stage events
        # _set_state emits hang under this span. A RolloutError escaping
        # marks the span status via its .code ("rollout_failed").
        span = get_tracer().root("rollout/run", force=True,
                                 attrs={"path": path})
        with span:
            self._trace_parent = span if span.context is not None else None
            try:
                return await self._run_staged(path, tag)
            finally:
                self._trace_parent = None

    async def _run_staged(self, path: str,
                          tag: Optional[str]) -> Dict[str, Any]:
        fleet = self.router._healthy_states()
        if not fleet:
            raise RolloutError("cannot roll out: no healthy replica")
        canary, rest = fleet[0], fleet[1:]
        baseline = await self._model_info(canary)
        old_features = int(baseline.get("n_features") or 0)

        # Write-ahead: the intent lands on disk before any replica is
        # touched, so a crash from here on leaves a journal that names
        # the artifact being rolled out.
        self._journal("intent", path=path, tag=tag)
        self._set_state("canary", replica=canary.id, path=path)
        self._journal("canary", replica=canary.id)
        promoted: List[Tuple[Any, int]] = []  # (state, new version) per replica
        try:
            version = await self._reload_one(canary, path, tag)
        except RolloutError as exc:
            # Canary never promoted — nothing to roll back.
            self._journal("rolled_back", reason="canary_reload_failed")
            self._finish("rolled_back", "canary_rejected", error=str(exc))
            raise
        promoted.append((canary, version))
        new_info = await self._model_info(canary)
        new_fp = new_info.get("fingerprint")
        self._journal("canary_promoted", replica=canary.id, version=version,
                      fingerprint=new_fp)

        errors, attempts = await self._bake(canary, old_features)
        error_rate = errors / attempts if attempts else 0.0
        if error_rate > MAX_ERROR_RATE:
            await self._rollback_all(promoted)
            self._journal("rolled_back", reason="canary_rejected",
                          error_rate=round(error_rate, 4))
            self._finish(
                "rolled_back", "canary_rejected",
                error_rate=round(error_rate, 4), probes=attempts,
            )
            raise RolloutError(
                f"canary {canary.id} rejected: error rate "
                f"{error_rate:.0%} over {attempts} probes "
                f"(limit {MAX_ERROR_RATE:.0%}); rolled back"
            )

        self._set_state("staged", fingerprint=new_fp)
        # COMMIT POINT: the canary baked clean, so the new artifact is
        # known good. A recovery pass that finds this record rolls the
        # fleet *forward* to new_fp; without it, back to the baseline.
        self._journal("staged", fingerprint=new_fp,
                      error_rate=round(error_rate, 4), probes=attempts)
        total = len(fleet)
        next_replica = 0
        try:
            for frac in STAGES:
                target = min(total, max(1, math.ceil(frac * total - 1e-9)))
                while len(promoted) < target and next_replica < len(rest):
                    state = rest[next_replica]
                    next_replica += 1
                    self._journal("promote", replica=state.id)
                    version = await self._reload_one(state, path, tag)
                    info = await self._model_info(state)
                    if info.get("fingerprint") != new_fp:
                        raise RolloutError(
                            f"replica {state.id} diverged after reload: "
                            f"fingerprint {info.get('fingerprint')!r} != "
                            f"canary {new_fp!r}"
                        )
                    promoted.append((state, version))
        except RolloutError as exc:
            await self._rollback_all(promoted)
            self._journal("rolled_back", reason="stage_aborted",
                          error=str(exc))
            self._finish("rolled_back", "aborted", error=str(exc))
            raise RolloutError(f"rollout aborted, fleet rolled back: {exc}") from exc

        # New source of truth first, then the terminal record: a crash
        # between the two leaves an open rollout whose artifact already
        # points at new_fp, and recovery completes it as a no-op.
        if self.journal is not None:
            self.journal.set_artifact(
                path, new_fp, version=max(v for _, v in promoted)
            )
        self._journal("complete", fingerprint=new_fp)
        self._finish("complete", "complete", fingerprint=new_fp,
                     replicas=len(promoted))
        return {
            "version": max(v for _, v in promoted),
            "fingerprint": new_fp,
            "rollout": {
                "state": "complete",
                "canary": canary.id,
                "probes": attempts,
                "error_rate": round(error_rate, 4),
                "promoted": {s.id: v for s, v in promoted},
            },
        }

    def _finish(self, state: str, outcome: str, **detail: Any) -> None:
        self._set_state(state, **detail)
        self._m_rollouts.labels(outcome=outcome).inc()

    # -- steps ---------------------------------------------------------------

    async def _model_info(self, state) -> Dict[str, Any]:
        try:
            info = await self.router.admin_request(state, {"op": "model-info"})
        except (ConnectionLostError, ValueError) as exc:
            raise RolloutError(
                f"replica {state.id} unreachable for model-info: {exc}"
            ) from exc
        if not info.get("ok"):
            raise RolloutError(
                f"replica {state.id} model-info failed: {info.get('error')}"
            )
        return info

    async def _reload_one(self, state, path: str,
                          tag: Optional[str]) -> int:
        payload: Dict[str, Any] = {"op": "reload", "path": path}
        if tag is not None:
            payload["tag"] = tag
        try:
            resp = await self.router.admin_request(state, payload)
        except (ConnectionLostError, ValueError) as exc:
            raise RolloutError(
                f"replica {state.id} died during reload: {exc}"
            ) from exc
        if not resp.get("ok"):
            raise RolloutError(
                f"replica {state.id} rejected reload of {path!r}: "
                f"{resp.get('error')}"
            )
        return int(resp["version"])

    async def _bake(self, canary, old_features: int) -> Tuple[int, int]:
        """Replay sampled traffic at the canary; returns (errors, attempts).

        Probe rows deliberately use the *old* feature count: live clients
        have not been redeployed, so that is the traffic the new model
        must survive. A model artifact with the wrong dimensionality
        fails here as a 100% validation-error rate — before any
        non-canary replica promotes.
        """
        rows = self.router.probe_rows(CANARY_PROBES, old_features)
        errors = attempts = 0
        for row in rows:
            try:
                resp = await self.router.admin_request(
                    canary, {"op": "predict", "x": row}
                )
            except (ConnectionLostError, ValueError):
                errors += 1
                attempts += 1
                continue
            if resp.get("ok"):
                attempts += 1
                continue
            if resp.get("err") in ("shed", "queue_full", "deadline_exceeded"):
                continue  # load-shaping, not model quality: neutral
            errors += 1
            attempts += 1
        return errors, attempts

    async def _rollback_all(self, promoted) -> None:
        for state, _version in promoted:
            try:
                await self.router.admin_request(state, {"op": "rollback"})
            except (ConnectionLostError, ValueError):
                # Replica unreachable mid-abort: the health loop will
                # eject it; record and keep rolling the others back.
                self._append_history({
                    "at": time.time(), "state": "rollback_failed",
                    "replica": state.id,
                })
